"""The network-plugin registry: decorator registration + entry points.

The network axis's instance of the shared
:class:`~repro.plugins.registry.PluginRegistry`, replacing the
``if network == ...`` branches that used to be scattered through the
runner, the CLI and the scheme adapters.  Built-ins, entry points
(group ``repro.network_plugins``) and runtime :func:`register_network`
/ :func:`unregister_network` calls populate it, and
:func:`canonical_network_name` resolves an alias (``"cube"``) to the
canonical name :class:`~repro.runner.spec.ScenarioSpec` stores and
content-hashes, exactly as on the other three axes.
"""

from __future__ import annotations

from repro.networks.api import NetworkPlugin
from repro.plugins.registry import PluginRegistry

__all__ = [
    "register_network",
    "unregister_network",
    "get_network",
    "iter_networks",
    "available_networks",
    "all_network_names",
    "canonical_network_name",
    "ENTRY_POINT_GROUP",
]

ENTRY_POINT_GROUP = "repro.network_plugins"

NETWORKS: PluginRegistry[NetworkPlugin] = PluginRegistry(
    "network",
    NetworkPlugin,
    ENTRY_POINT_GROUP,
    (
        "repro.networks.hypercube",
        "repro.networks.butterfly",
        "repro.networks.ring",
        "repro.networks.torus",
    ),
)

register_network = NETWORKS.register
unregister_network = NETWORKS.unregister
get_network = NETWORKS.get
iter_networks = NETWORKS.iter
available_networks = NETWORKS.available
all_network_names = NETWORKS.all_names
canonical_network_name = NETWORKS.canonical

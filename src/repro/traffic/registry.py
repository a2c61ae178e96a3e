"""The traffic-plugin registry: decorator registration + entry points.

Mirrors the scheme/network/engine registries on the **traffic** axis,
replacing the ``law``-selection branches that used to be hard-wired in
the network plugins and the scheme adapters.  This package is the
**only** place in the library allowed to compare traffic names —
everything else goes through :func:`get_traffic` /
:func:`canonical_traffic_name` (enforced by a grep-style test, exactly
as PRs 3 and 4 did for networks and engines).

The registry is the traffic axis's instance of the shared
:class:`~repro.plugins.registry.PluginRegistry`: built-ins, entry
points (group ``repro.traffic_plugins``) and runtime
:func:`register_traffic` / :func:`unregister_traffic` calls populate
it, and aliases (``"bernoulli"`` for ``"uniform"``) resolve to the
canonical name a spec stores and content-hashes, exactly as on the
other three axes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.plugins.registry import PluginRegistry
from repro.traffic.api import TrafficPlugin

__all__ = [
    "register_traffic",
    "unregister_traffic",
    "get_traffic",
    "iter_traffics",
    "available_traffics",
    "all_traffic_names",
    "canonical_traffic_name",
    "declared_traffic_names",
    "merge_legacy_law",
    "ENTRY_POINT_GROUP",
]

ENTRY_POINT_GROUP = "repro.traffic_plugins"

TRAFFICS: PluginRegistry[TrafficPlugin] = PluginRegistry(
    "traffic",
    TrafficPlugin,
    ENTRY_POINT_GROUP,
    (
        "repro.traffic.uniform",
        "repro.traffic.permutations",
        "repro.traffic.hotspot",
        "repro.traffic.bursty",
    ),
    listing="traffic laws",
)

register_traffic = TRAFFICS.register
unregister_traffic = TRAFFICS.unregister
get_traffic = TRAFFICS.get
iter_traffics = TRAFFICS.iter
available_traffics = TRAFFICS.available
all_traffic_names = TRAFFICS.all_names
canonical_traffic_name = TRAFFICS.canonical
#: a scheme's declared ``capabilities.traffics`` canonicalised (the
#: wildcard passes through; unregistered names are kept verbatim)
declared_traffic_names = TRAFFICS.declared

#: the retired ``extra={"law": ...}`` vocabulary of the pre-axis
#: hypercube network option, mapped onto the traffic axis so old specs
#: keep constructing (and share cache cells with the new spelling)
_LEGACY_LAWS = {"bernoulli": "uniform", "bitrev": "bitrev"}


def merge_legacy_law(traffic: str, law: object) -> str:
    """Fold the retired ``extra={"law": ...}`` option into the traffic
    axis: the canonical traffic name the pair resolves to, or an error
    when the two disagree.

    Called from :class:`~repro.runner.spec.ScenarioSpec` normalisation
    **before** content-hashing, so a legacy spelling and its traffic-axis
    twin always share one cache cell.
    """
    mapped = _LEGACY_LAWS.get(law)
    if mapped is None:
        known = ", ".join(sorted(_LEGACY_LAWS))
        raise ConfigurationError(
            f"unknown legacy destination law {law!r} (one of {known}); "
            "prefer the traffic axis: ScenarioSpec(traffic=...) with one "
            f"of {', '.join(available_traffics())}"
        )
    canonical = canonical_traffic_name(traffic)
    if canonical not in {canonical_traffic_name("uniform"), mapped}:
        raise ConfigurationError(
            f"legacy option law={law!r} maps to traffic {mapped!r}, which "
            f"contradicts the spec's traffic {canonical!r}; drop the law "
            "option and keep the traffic field"
        )
    return mapped

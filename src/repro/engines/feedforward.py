"""Engine plugin for the levelled feed-forward sweep (the HPC path).

The paper's central computational trick: the equivalent networks Q
(§3.1) and R (§4.3) are *levelled* (Property B), so a whole sample
path solves level by level with **no event calendar** — one closed-form
Lindley recursion (FIFO) or exact fair-share construction (PS) per
server, all servers of a level in one vectorised shot
(:func:`repro.sim.feedforward.serve_level`).

The engine drives a network through its native level-sweep kernel
(:meth:`~repro.networks.api.NetworkPlugin.simulate_greedy`), so it only
supports networks that declare it native; the fixed-point engine
covers everything else.  The hypercube and butterfly kernels stream
each replication in birth-ordered chunks with per-arc queue state
carried between chunks (:data:`repro.sim.feedforward.STREAM_CHUNK`
packets each), so peak memory is bounded by the topology instead of
the horizon, and the result is bit-identical to the one-shot sweep
(tested) for FIFO and PS alike.

The engine declares ``batching``: a batch is one streamed sweep per
replication through the base class's
:meth:`~repro.engines.api.EnginePlugin.batch_deliveries`, which keeps
the golden batch-route checks running on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engines.api import EngineCapabilities, EnginePlugin
from repro.engines.registry import register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["FeedForwardEngine"]


@register_engine
class FeedForwardEngine(EnginePlugin):
    name = "feedforward"
    aliases = ("ff", "levelled")
    summary = "level-by-level vectorised sweep of levelled networks (§3.1/§4.3)"
    capabilities = EngineCapabilities(
        kind="levelled",
        disciplines=("fifo", "ps"),
        # admissibility is structural, not a name list: any network —
        # third-party included — that declares a native level-sweep
        # kernel (NetworkPlugin.native_engine) can ride this engine
        networks=("*",),
        batching=True,
    )

    def supports(self, spec: "ScenarioSpec"):
        reason = super().supports(spec)
        if reason is not None:
            return reason
        if spec.network_plugin.native_engine() != self.name:
            return (
                f"network {spec.network!r} provides no levelled "
                "level-sweep kernel (its native vectorised engine is "
                f"{spec.network_plugin.native_engine()!r})"
            )
        return None

    def simulate(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        sample: "TrafficSample",
    ) -> "np.ndarray":
        return spec.network_plugin.simulate_greedy(topology, spec, sample)

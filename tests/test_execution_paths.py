"""The route equivalence contract of the parallel runner.

One spec, several ways to execute its replications — sequential
per-replication tasks, the batched route in process, and the batched
route split across a worker pool (``jobs > 1``) — plus the streamed
(chunked-horizon) level sweeps every hypercube and butterfly
replication runs through.  All of them must be **bit-identical**: same
pooled measurement, byte-identical per-replication cache cells (the
cells are how sweeps compose across sessions, so even a one-ulp drift
would poison every downstream pooled estimate), and streamed delivery
epochs equal to the one-shot sweep's at every chunk size.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import as_generator, replication_seeds
from repro.runner import ScenarioSpec, measure
from repro.runner.store import ResultsStore
from repro.sim.feedforward import (
    STREAM_CHUNK,
    simulate_butterfly_greedy,
    simulate_butterfly_greedy_chunked,
    simulate_hypercube_greedy,
    simulate_hypercube_greedy_chunked,
)

#: one small cell per registered network (both native engines: the
#: level sweep on hypercube/butterfly, the fixed-point solver on
#: ring/torus), sized so the full matrix stays fast
CELLS = [
    ScenarioSpec(
        name="paths-hc", network="hypercube", scheme="greedy", d=4,
        rho=0.6, horizon=6.0, replications=5, base_seed=11,
        seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-bf", network="butterfly", scheme="greedy", d=3,
        rho=0.6, horizon=6.0, replications=5, base_seed=12,
        seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-ring", network="ring", scheme="greedy", d=4,
        rho=0.5, horizon=5.0, replications=4, base_seed=13,
        seed_policy="spawn",
    ),
    ScenarioSpec(
        name="paths-torus", network="torus", scheme="greedy", d=2,
        rho=0.5, horizon=5.0, replications=4, base_seed=14,
        seed_policy="spawn",
    ),
]

#: the two pool widths the batched route is split across
WORKER_COUNTS = (2, 4)


def _cell_bytes(store, spec):
    return [
        store.replication_path_for(spec, k).read_bytes()
        for k in range(spec.replications)
    ]


def _samples(spec):
    """Every replication's workload sample, drawn as the runner does."""
    net = spec.network_plugin
    seeds = replication_seeds(spec.base_seed, spec.replications, spec.seed_policy)
    workload = net.build_workload(spec)
    return [workload.generate(spec.horizon, as_generator(s)) for s in seeds]


def _one_shot(topology, spec, sample, discipline):
    """Delivery epochs from the one-shot (unstreamed) level sweep."""
    if spec.network == "butterfly":
        return simulate_butterfly_greedy(
            topology, sample, discipline=discipline
        ).delivery
    dim_order = spec.option("dim_order")
    return simulate_hypercube_greedy(
        topology, sample, discipline=discipline,
        dim_order=None if dim_order is None else list(dim_order),
    ).delivery


def _chunked(topology, spec, sample, discipline, chunk):
    """Delivery epochs from the streamed sweep at *chunk* packets."""
    if spec.network == "butterfly":
        return simulate_butterfly_greedy_chunked(
            topology, sample, chunk_packets=chunk, discipline=discipline
        )
    dim_order = spec.option("dim_order")
    return simulate_hypercube_greedy_chunked(
        topology, sample, chunk_packets=chunk, discipline=discipline,
        dim_order=None if dim_order is None else list(dim_order),
    )


class TestThreeRouteEquivalence:
    @pytest.mark.parametrize("spec", CELLS, ids=lambda s: s.network)
    def test_sequential_batched_parallel_identical(self, spec, tmp_path):
        """Pooled measurements equal and per-replication cache cells
        byte-identical across every route and worker count."""
        seq_store = ResultsStore(tmp_path / "seq")
        m_seq = measure(spec, jobs=1, batch=False, store=seq_store)
        reference = _cell_bytes(seq_store, spec)

        bat_store = ResultsStore(tmp_path / "bat")
        m_bat = measure(spec, jobs=1, batch=True, store=bat_store)
        assert m_bat == m_seq
        assert _cell_bytes(bat_store, spec) == reference

        for jobs in WORKER_COUNTS:
            par_store = ResultsStore(tmp_path / f"par{jobs}")
            m_par = measure(spec, jobs=jobs, batch=True, store=par_store)
            assert m_par == m_seq, f"jobs={jobs}"
            assert _cell_bytes(par_store, spec) == reference, f"jobs={jobs}"

    @pytest.mark.parametrize(
        "spec", [s for s in CELLS if s.network in ("hypercube", "butterfly")],
        ids=lambda s: s.network,
    )
    def test_chunked_horizon_identical(self, spec):
        """The streamed kernels match the one-shot sweep bit for bit
        under both disciplines (the chunk size must never leak into
        the numbers — only into the memory profile)."""
        topology = spec.network_plugin.build_topology(spec)
        for sample in _samples(spec):
            for discipline in ("fifo", "ps"):
                one_shot = _one_shot(topology, spec, sample, discipline)
                for chunk in (1, 7, 13, 50, 10**6):
                    got = _chunked(topology, spec, sample, discipline, chunk)
                    assert np.array_equal(got, one_shot), (discipline, chunk)


#: event-engine cells: greedy forced onto the calendar engine, and the
#: cyclic schemes whose batch runner draws scheme randomness after the
#: workload on each replication stream; all ride every route
EVENT_CELLS = [
    ScenarioSpec(
        name="paths-ev-greedy", network="hypercube", scheme="greedy",
        engine="event", d=4, rho=0.6, horizon=6.0, replications=5,
        base_seed=21, seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-ev-greedy-ps", network="hypercube", scheme="greedy",
        engine="event", discipline="ps", d=4, rho=0.6, horizon=6.0,
        replications=4, base_seed=22, seed_policy="spawn",
    ),
]

CYCLIC_CELLS = [
    ScenarioSpec(
        name="paths-ev-random-order", network="hypercube",
        scheme="random_order", d=4, rho=0.6, horizon=6.0,
        replications=5, base_seed=23, seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-ev-twophase", network="hypercube", scheme="twophase",
        d=4, rho=0.6, horizon=6.0, replications=4, base_seed=24,
        seed_policy="spawn",
    ),
]


class TestEventRouteEquivalence:
    """The route contract extended to the event calendar."""

    @pytest.mark.parametrize("spec", EVENT_CELLS, ids=lambda s: s.name)
    def test_event_engine_three_routes_identical(self, spec, tmp_path):
        """Greedy on the forced event engine: sequential, batched and
        pool-split batched (jobs=2) cells byte-identical."""
        seq_store = ResultsStore(tmp_path / "seq")
        m_seq = measure(spec, jobs=1, batch=False, store=seq_store)
        reference = _cell_bytes(seq_store, spec)

        bat_store = ResultsStore(tmp_path / "bat")
        m_bat = measure(spec, jobs=1, batch=True, store=bat_store)
        assert m_bat == m_seq
        assert _cell_bytes(bat_store, spec) == reference

        par_store = ResultsStore(tmp_path / "par")
        m_par = measure(spec, jobs=2, batch=True, store=par_store)
        assert m_par == m_seq
        assert _cell_bytes(par_store, spec) == reference

    @pytest.mark.parametrize("spec", CYCLIC_CELLS, ids=lambda s: s.name)
    def test_cyclic_scheme_batched_routes_identical(self, spec, tmp_path):
        """Cyclic schemes: the batched calendar and its jobs=2 split
        reproduce the sequential cells byte for byte."""
        seq_store = ResultsStore(tmp_path / "seq")
        m_seq = measure(spec, jobs=1, batch=False, store=seq_store)
        reference = _cell_bytes(seq_store, spec)

        bat_store = ResultsStore(tmp_path / "bat")
        m_bat = measure(spec, jobs=1, batch=True, store=bat_store)
        assert m_bat == m_seq
        assert _cell_bytes(bat_store, spec) == reference

        par_store = ResultsStore(tmp_path / "par")
        m_par = measure(spec, jobs=2, batch=True, store=par_store)
        assert m_par == m_seq
        assert _cell_bytes(par_store, spec) == reference


class TestChunkedKernels:
    def test_hypercube_chunked_respects_dim_order(self):
        """Chunk composition commutes with a permuted global crossing
        order (the carry is per *arc*, and arcs are dimension-scoped)."""
        spec = ScenarioSpec(
            name="chk-order", network="hypercube", scheme="greedy", d=6,
            rho=0.6, horizon=6.0, replications=2, base_seed=5,
            extra={"dim_order": (3, 0, 5, 1, 4, 2)},
        )
        topology = spec.network_plugin.build_topology(spec)
        for sample in _samples(spec):
            for discipline in ("fifo", "ps"):
                one_shot = _one_shot(topology, spec, sample, discipline)
                got = _chunked(topology, spec, sample, discipline, 19)
                assert np.array_equal(got, one_shot), discipline

    def test_chunked_rejects_nonpositive_chunk(self):
        from repro.sim.feedforward import simulate_hypercube_greedy_chunked
        from repro.topology.hypercube import Hypercube
        from repro.traffic.workload import HypercubeWorkload
        from repro.traffic.destinations import UniformLaw

        cube = Hypercube(4)
        sample = HypercubeWorkload(cube, 1.0, UniformLaw(4)).generate(
            2.0, np.random.default_rng(0)
        )
        with pytest.raises(ConfigurationError, match="chunk_packets"):
            simulate_hypercube_greedy_chunked(cube, sample, chunk_packets=0)

    def test_removed_engine_options_are_rejected(self):
        """Streaming is always on, so the old route knobs are unknown
        options, rejected by name at validation time."""
        for key in ("chunk_packets", "batch_reps"):
            with pytest.raises(ConfigurationError, match=key):
                ScenarioSpec(
                    name="chk-knob", network="hypercube", scheme="greedy",
                    d=4, rho=0.5, horizon=4.0, replications=1,
                    extra={key: 16},
                )

    @pytest.mark.parametrize("network,d", [("hypercube", 8), ("butterfly", 8)])
    def test_default_path_matches_one_shot_beyond_one_chunk(self, network, d):
        """A cell larger than one default chunk: the engine's default
        (streamed) path equals the one-shot sweep bit for bit, per
        delivery epoch and per replication, under both disciplines."""
        from repro.plugins.api import steady_output
        from repro.sim.measurement import DelayRecord

        for discipline in ("fifo", "ps"):
            spec = ScenarioSpec(
                name="chk-big", network=network, scheme="greedy", d=d,
                rho=0.6, horizon=120.0, replications=2, base_seed=31,
                discipline=discipline,
            )
            net = spec.network_plugin
            topology = net.build_topology(spec)
            expected = []
            for sample in _samples(spec):
                assert sample.num_packets > STREAM_CHUNK
                one_shot = _one_shot(topology, spec, sample, discipline)
                got = net.simulate_greedy(topology, spec, sample)
                assert np.array_equal(got, one_shot), discipline
                record = DelayRecord(sample.times, one_shot, sample.horizon)
                expected.append(steady_output(spec, record).mean_delay)
            m = measure(spec, jobs=1)
            assert m.replication_delays == tuple(expected), discipline


class TestChunkedPS:
    """The PS chunk carry: in-service packets carried per arc across
    chunk boundaries, busy periods closed at the watermark.  The engine
    contract is agreement with the one-shot fair-share sweep to <= 1e-9;
    both run the same kernel, the carry resuming from carried state, so
    the chunk sweeps match the one-shot sweep exactly at every chunk
    size, on both chunk-composable networks."""

    TOL = 1e-9
    CHUNKS = (1, 7, 50, 333, 10**6)

    @pytest.mark.parametrize("network,d", [("hypercube", 5), ("butterfly", 4)])
    def test_ps_chunk_sweep_matches_one_shot(self, network, d):
        spec = ScenarioSpec(
            name="chk-ps", network=network, scheme="greedy", d=d,
            rho=0.6, horizon=8.0, replications=1, base_seed=21,
            discipline="ps",
        )
        topology = spec.network_plugin.build_topology(spec)
        (sample,) = _samples(spec)
        assert sample.num_packets > 100
        one_shot = _one_shot(topology, spec, sample, "ps")
        for chunk in self.CHUNKS:
            chunked = _chunked(topology, spec, sample, "ps", chunk)
            err = float(np.max(np.abs(chunked - one_shot)))
            assert np.array_equal(chunked, one_shot), (
                f"chunk={chunk}: max deviation {err}"
            )

    def test_ps_chunk_sweep_with_permuted_dim_order(self):
        """The carry composes with a permuted global crossing order —
        the level-space bookkeeping must remap through it."""
        extra = {"dim_order": (3, 0, 4, 1, 2)}
        spec = ScenarioSpec(
            name="chk-ps-ord", network="hypercube", scheme="greedy", d=5,
            rho=0.6, horizon=8.0, replications=1, base_seed=22,
            discipline="ps", extra=extra,
        )
        topology = spec.network_plugin.build_topology(spec)
        (sample,) = _samples(spec)
        one_shot = _one_shot(topology, spec, sample, "ps")
        for chunk in (1, 29, 10**6):
            chunked = _chunked(topology, spec, sample, "ps", chunk)
            assert np.array_equal(chunked, one_shot), chunk

    def test_ps_chunked_accepted_end_to_end(self):
        """A PS measurement runs end to end on the streamed default
        path and agrees with one-shot PS sweeps of its replications."""
        from repro.plugins.api import steady_output
        from repro.sim.measurement import DelayRecord

        spec = ScenarioSpec(
            name="chk-ps-e2e", network="hypercube", scheme="greedy", d=4,
            rho=0.5, horizon=6.0, replications=3, base_seed=23,
            discipline="ps",
        )
        topology = spec.network_plugin.build_topology(spec)
        m = measure(spec, jobs=1, batch=True)
        for got, sample in zip(m.replication_delays, _samples(spec)):
            one_shot = _one_shot(topology, spec, sample, "ps")
            record = DelayRecord(sample.times, one_shot, sample.horizon)
            assert abs(got - steady_output(spec, record).mean_delay) <= self.TOL


class TestRepBlockedConvergence:
    """The fixed-point solver's rep-blocked convergence: a replication
    that reaches its fixed point drops out of the remaining sweeps
    (observable via FixedPointResult.sweep_rows) while the final sample
    paths stay bit-identical to the standalone solves."""

    @staticmethod
    def _mixed_reps():
        """Two replications with deliberately heterogeneous convergence:
        a single-hop fast one and a long shared-arc chain."""
        rng = np.random.default_rng(17)
        num_arcs = 10
        fast = (
            np.sort(rng.uniform(0.0, 5.0, 4)),
            [[int(rng.integers(0, num_arcs))] for _ in range(4)],
        )
        slow_paths = [
            [int((s + k) % num_arcs) for k in range(int(rng.integers(4, 9)))]
            for s in rng.integers(0, num_arcs, 80)
        ]
        slow = (np.sort(rng.uniform(0.0, 10.0, 80)), slow_paths)
        return num_arcs, [fast, slow]

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_batch_bit_identical_with_fewer_sweep_rows(self, discipline):
        from repro.sim.fixedpoint import (
            simulate_paths_fixed_point,
            simulate_paths_fixed_point_batch,
        )

        num_arcs, reps = self._mixed_reps()
        solo = [
            simulate_paths_fixed_point(
                num_arcs, births, paths, discipline=discipline
            )
            for births, paths in reps
        ]
        assert solo[0].sweeps < solo[1].sweeps  # genuinely heterogeneous
        batch = simulate_paths_fixed_point_batch(
            num_arcs,
            [r[0] for r in reps],
            [r[1] for r in reps],
            discipline=discipline,
        )
        for r in range(len(reps)):
            assert np.array_equal(batch[r], solo[r].delivery)

    def test_sweep_rows_counts_only_active_blocks(self):
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        num_arcs, reps = self._mixed_reps()
        births = np.concatenate([r[0] for r in reps])
        stacked = [list(p) for p in reps[0][1]] + [
            [a + num_arcs for a in p] for p in reps[1][1]
        ]
        total = sum(len(p) for p in stacked)
        rep_blocks = np.array(
            [0, sum(len(p) for p in reps[0][1]), total], dtype=np.int64
        )
        res = simulate_paths_fixed_point(
            num_arcs * 2, births, stacked, rep_blocks=rep_blocks
        )
        # the fast block converged early and was dropped: strictly
        # fewer rows swept than sweeps * total
        assert res.sweep_rows < res.sweeps * total
        # and without rep_blocks every sweep scans every row
        flat = simulate_paths_fixed_point(num_arcs * 2, births, stacked)
        assert flat.sweep_rows == flat.sweeps * total
        assert np.array_equal(flat.delivery, res.delivery)


class TestBoundedMemory:
    def test_long_horizon_peak_is_chunk_bounded_not_horizon_bounded(self):
        """On a long-horizon cell the one-shot sweep's transient
        footprint scales with the horizon; the chunked sweep's scales
        with the chunk + the topology.  The gap is the whole point of
        the mode."""
        spec = ScenarioSpec(
            name="mem-long", network="hypercube", scheme="greedy", d=8,
            rho=0.7, horizon=150.0, replications=1, base_seed=2,
        )
        topology = spec.network_plugin.build_topology(spec)
        (sample,) = _samples(spec)
        tracemalloc.start()
        one_shot = simulate_hypercube_greedy(topology, sample).delivery
        _, peak_one = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracemalloc.start()
        chunked = simulate_hypercube_greedy_chunked(
            topology, sample, chunk_packets=2048
        )
        _, peak_chunk = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.array_equal(one_shot, chunked)
        assert peak_chunk < peak_one / 2

    def test_d20_cell_completes_in_carry_bounded_memory(self):
        """A d=20 hypercube cell (1M nodes, 21M arcs) streams through
        the chunked kernel with peak *additional* memory bounded by the
        dense per-arc carry plus a chunk-sized working set — not by the
        horizon — and stays bit-identical to the one-shot sweep."""
        spec = ScenarioSpec(
            name="mem-d20", network="hypercube", scheme="greedy", d=20,
            rho=0.6, horizon=0.05, replications=1, base_seed=3,
        )
        topology = spec.network_plugin.build_topology(spec)
        (sample,) = _samples(spec)
        assert sample.num_packets > 20_000  # a real cell, not a toy
        chunk = 8192
        tracemalloc.start()
        chunked = simulate_hypercube_greedy_chunked(
            topology, sample, chunk_packets=chunk
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # dense carry: int64 counts + float64 running max per arc
        carry_bytes = topology.num_arcs * 16
        # plus a chunk-scaled transient working set and ~a few hundred
        # bytes of in-flight bookkeeping per packet (delivery/hops/
        # entry plus the parked (pid, arrival) rows) — crucially, NOT
        # the one-shot sweep's multiple-arrays-per-(packet, level)
        # footprint, which is what the horizon multiplies
        budget = carry_bytes + 64 * 8 * chunk + 400 * sample.num_packets
        assert peak < budget
        one_shot = simulate_hypercube_greedy(topology, sample).delivery
        assert np.array_equal(one_shot, chunked)


class TestRunnerResolution:
    def test_batch_runner_resolved_once_per_spec(self, monkeypatch):
        """measure_many must resolve the scheme's batch runner once per
        spec — never again at task-execution time in the same process."""
        from repro.plugins.greedy import GreedyPlugin

        calls = []
        original = GreedyPlugin.batch_runner

        def counting(self, spec):
            calls.append(spec.name)
            return original(self, spec)

        monkeypatch.setattr(GreedyPlugin, "batch_runner", counting)
        spec = CELLS[0]
        measure(spec, jobs=1, batch=True)
        assert calls == [spec.name]

"""Engine-axis baseline: the replication routes, timed and pinned.

Emits ``BENCH_engines.json`` at the **repo root** pinning the
wall-clock and memory profile of the replication fan-out for one
32-replication hypercube-greedy measurement:

* ``seed_fanout_s``   — the original per-replication fan-out: the
  one-shot level sweep with the seed's ``serve_level`` (a Python loop
  over arcs, one little Lindley/PS call per arc) re-enacted verbatim.
* ``oneshot_s``       — the same fan-out with today's ``serve_level``:
  the one-shot sweep, every level solved by the segmented Lindley
  recursion with **no** per-arc loop.
* ``sequential_s``    — the per-replication task route
  (``measure(batch=False)``), each replication streamed through the
  chunked level sweep.
* ``streamed_s``      — the default route (``measure``, jobs=1, same
  process): one batch task, each replication streamed in chunks of
  ``STREAM_CHUNK`` packets with per-arc state carried between them.
  ``streamed_vs_oneshot`` is the one-shot time over the streamed time
  per packet, pinned ≥ 0.9: bounded memory at no throughput cost.
* ``memory`` — tracemalloc peaks of the one-shot vs chunked kernel on
  a long-horizon cell where the horizon (not the topology) dominates
  the one-shot footprint.
* ``chunked_ps`` — the PS chunk carry on the same cell (one
  replication): max abs deviation of the default streamed fair-share
  sweep from the one-shot PS sweep, pinned ≤ 1e-9 (the engine
  contract; the shared kernel makes it 0.0).
* ``ps_s`` / ``fifo_s`` — the pinned cell measured once with
  Processor-Sharing servers (network Q̃, §3.3) and once with FIFO, on
  the default route.  ``ps_vs_fifo`` is PS over FIFO wall time per
  packet, pinned ≤ 3.0.
* ``event_s`` / ``event_batched_s`` — the replication-batched event
  calendar on a **sparse cyclic-scheme cell** (``random_order``: the
  server graph is cyclic, so only the event engine can run it):
  sequential per-replication calendars vs all replications stacked
  into one arc-offset calendar.  The merged calendar is R times
  denser, which is where the windowed FIFO core's per-window cost
  amortises — ``event_batched_vs_event = event_s / event_batched_s``
  is pinned ≥ 2.0, with per-replication results bit-identical by
  construction (asserted).

Every route produces **bit-identical** replication delays (asserted —
the golden-pinned contract), so the comparison is pure wall clock.
The operating point is deliberately arc-rich (d=13: 8192 nodes, 106496
arcs, short horizon): the regime of wide parameter sweeps over large
networks.

Run with::

    python benchmarks/bench_engines.py            # full (the pinned JSON)
    python benchmarks/bench_engines.py --quick    # CI smoke sizes
"""

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repro.sim.feedforward as _ff
from repro.plugins.api import steady_output
from repro.rng import as_generator, replication_seeds
from repro.runner import ScenarioSpec, measure
from repro.sim.feedforward import (
    STREAM_CHUNK,
    simulate_hypercube_greedy,
    simulate_hypercube_greedy_chunked,
)
from repro.sim.lindley import fifo_departure_times
from repro.sim.measurement import DelayRecord
from repro.sim.servers import ps_departure_times

ROOT = Path(__file__).resolve().parent.parent

#: arc-rich sweep cell: 8192-node cube, every level touches thousands
#: of arcs with a handful of packets each
FULL_SPEC = dict(d=13, rho=0.7, horizon=4.0, replications=32)
#: CI smoke sizes (same shape, seconds instead of minutes)
QUICK_SPEC = dict(d=10, rho=0.7, horizon=6.0, replications=16)

#: bounded-memory demonstration cell: modest network, long horizon —
#: the regime streaming exists for (one-shot footprint scales with the
#: horizon, chunked with the chunk + the topology)
FULL_MEM = dict(d=10, rho=0.7, horizon=200.0)
QUICK_MEM = dict(d=8, rho=0.7, horizon=120.0)
MEM_CHUNK = 4096

#: sparse cyclic-scheme cell for the batched event calendar: low load
#: and a long horizon make the per-replication calendar sparse (few
#: events per service window), the regime where merging R replications
#: into one denser calendar pays the most
FULL_EVENT = dict(d=4, rho=0.3, horizon=400.0, replications=32)
QUICK_EVENT = dict(d=4, rho=0.3, horizon=120.0, replications=16)

REPEATS = 5  # best-of timings


def _seed_serve_level(arcs, times, pids, discipline="fifo", service=1.0):
    """The seed's ``serve_level`` (commit c5ecac6), frozen verbatim:
    after the (arc, time, pid) lexsort, a Python loop dispatches one
    Lindley / fair-share call **per busy arc**."""
    n = arcs.shape[0]
    dep = np.empty(n)
    if n == 0:
        return dep, np.zeros(0, dtype=np.int64)
    per_arc = isinstance(service, np.ndarray)
    order = np.lexsort((pids, times, arcs))
    a_s = arcs[order]
    t_s = times[order]
    starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
    bounds = np.r_[starts, n]
    dep_s = np.empty(n)
    for i in range(starts.shape[0]):
        lo, hi = bounds[i], bounds[i + 1]
        s = float(service[int(a_s[lo])]) if per_arc else float(service)
        if discipline == "fifo":
            dep_s[lo:hi] = fifo_departure_times(t_s[lo:hi], s)
        else:
            dep_s[lo:hi] = ps_departure_times(t_s[lo:hi], work=s)
    dep[order] = dep_s
    return dep, order


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _sample(spec):
    """Replication 0's workload sample of *spec*."""
    seeds = replication_seeds(spec.base_seed, 1, spec.seed_policy)
    return spec.network_plugin.build_workload(spec).generate(
        spec.horizon, as_generator(seeds[0])
    )


def _oneshot_fanout(spec):
    """Replication delays from the one-shot level sweep, one
    replication at a time through whatever ``serve_level`` the module
    currently binds (the seed's, for ``seed_fanout_s``)."""
    net = spec.network_plugin
    topology = net.build_topology(spec)
    workload = net.build_workload(spec)
    delays = []
    for seed in replication_seeds(spec.base_seed, spec.replications,
                                  spec.seed_policy):
        sample = workload.generate(spec.horizon, as_generator(seed))
        delivery = simulate_hypercube_greedy(
            topology, sample, discipline=spec.discipline
        ).delivery
        record = DelayRecord(sample.times, delivery, sample.horizon)
        delays.append(steady_output(spec, record).mean_delay)
    return tuple(delays)


def _memory_peaks(params):
    """tracemalloc peaks of the one-shot vs chunked kernel on one
    long-horizon replication (the workload itself is excluded — both
    kernels read the same pre-generated sample)."""
    spec = ScenarioSpec(
        name="bench-engines-mem", base_seed=0, seed_policy="spawn",
        replications=1, **params
    )
    topology = spec.network_plugin.build_topology(spec)
    sample = _sample(spec)
    tracemalloc.start()
    one_shot = simulate_hypercube_greedy(topology, sample).delivery
    _, peak_one = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    chunked = simulate_hypercube_greedy_chunked(
        topology, sample, chunk_packets=MEM_CHUNK
    )
    _, peak_chunk = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "cell": {**params, "num_packets": sample.num_packets},
        "chunk_packets": MEM_CHUNK,
        "oneshot_peak_mb": round(peak_one / 2**20, 2),
        "chunked_peak_mb": round(peak_chunk / 2**20, 2),
        "oneshot_over_chunked": round(peak_one / max(peak_chunk, 1), 2),
        "bit_identical": bool(np.array_equal(one_shot, chunked)),
    }


def _chunked_ps_agreement(params):
    """Max abs deviation of the default streamed PS sweep from the
    one-shot PS sweep on one replication of the timing cell
    (contract: <= 1e-9)."""
    spec = ScenarioSpec(
        name="bench-engines-ps", base_seed=0, seed_policy="spawn",
        replications=1, discipline="ps",
        **{k: v for k, v in params.items() if k != "replications"},
    )
    net = spec.network_plugin
    topology = net.build_topology(spec)
    sample = _sample(spec)
    one_shot = simulate_hypercube_greedy(
        topology, sample, discipline="ps"
    ).delivery
    streamed = net.simulate_greedy(topology, spec, sample)
    err = (
        float(np.max(np.abs(one_shot - streamed)))
        if sample.num_packets
        else 0.0
    )
    return {
        "cell": {k: v for k, v in params.items() if k != "replications"},
        "chunk_packets": STREAM_CHUNK,
        "max_abs_diff": err,
        "within_tolerance": bool(err <= 1e-9),
    }


def run_experiment(quick=False):
    params = QUICK_SPEC if quick else FULL_SPEC
    spec = ScenarioSpec(
        name="bench-engines", base_seed=0, seed_policy="spawn", **params
    )
    modern = _ff.serve_level
    _ff.serve_level = _seed_serve_level
    try:
        seed_s, seed_delays = _best_of(lambda: _oneshot_fanout(spec))
    finally:
        _ff.serve_level = modern
    one_s, one_delays = _best_of(lambda: _oneshot_fanout(spec))
    seq_s, seq_m = _best_of(lambda: measure(spec, jobs=1, batch=False))
    str_s, str_m = _best_of(lambda: measure(spec, jobs=1))
    ps_s, ps_m = _best_of(
        lambda: measure(spec.replace(discipline="ps"), jobs=1)
    )
    ps_vs_fifo = (ps_s / ps_m.num_packets) / (str_s / str_m.num_packets)

    event_params = QUICK_EVENT if quick else FULL_EVENT
    event_spec = ScenarioSpec(
        name="bench-engines-event", scheme="random_order", base_seed=0,
        seed_policy="spawn", **event_params
    )
    ev_s, ev_m = _best_of(lambda: measure(event_spec, jobs=1, batch=False))
    evb_s, evb_m = _best_of(lambda: measure(event_spec, jobs=1, batch=True))

    bit_identical = (
        seed_delays == one_delays == seq_m.replication_delays
        and seq_m == str_m
    )
    streamed_identical = str_m.replication_delays == one_delays
    # the batched outputs equal the sequential golden values per
    # replication, not merely in the pooled mean
    seeds = replication_seeds(spec.base_seed, spec.replications,
                              spec.seed_policy)
    runner = spec.plugin.batch_runner(spec)
    from repro.sim.run_spec import run_spec

    per_rep_identical = runner(seeds) == [run_spec(spec, s) for s in seeds]

    return {
        "mode": "quick" if quick else "full",
        "host_cpu_cores": os.cpu_count() or 1,
        "spec": {
            "network": spec.network,
            "scheme": spec.scheme,
            "engine": spec.engine,
            "resolved_engine": "feedforward",
            "d": spec.d,
            "rho": spec.rho,
            "horizon": spec.horizon,
            "replications": spec.replications,
            "seed_policy": spec.seed_policy,
        },
        "num_packets": str_m.num_packets,
        "mean_delay": str_m.mean_delay,
        "seed_fanout_s": round(seed_s, 4),
        "oneshot_s": round(one_s, 4),
        "sequential_s": round(seq_s, 4),
        "streamed_s": round(str_s, 4),
        "stream_chunk_packets": STREAM_CHUNK,
        "speedup_vs_seed": round(seed_s / str_s, 2),
        "speedup_sequential_vs_seed": round(seed_s / seq_s, 2),
        # both routes solve the same packets, so the per-packet ratio
        # is the wall-time ratio
        "streamed_vs_oneshot": round(one_s / str_s, 2),
        "ps_s": round(ps_s, 4),
        "fifo_s": round(str_s, 4),
        "ps_vs_fifo": round(ps_vs_fifo, 2),
        "bit_identical": bool(bit_identical),
        "chunked_bit_identical": bool(streamed_identical),
        "per_replication_bit_identical": bool(per_rep_identical),
        "event_spec": {
            "network": event_spec.network,
            "scheme": event_spec.scheme,
            "resolved_engine": "event",
            "d": event_spec.d,
            "rho": event_spec.rho,
            "horizon": event_spec.horizon,
            "replications": event_spec.replications,
            "seed_policy": event_spec.seed_policy,
        },
        "event_num_packets": evb_m.num_packets,
        "event_s": round(ev_s, 4),
        "event_batched_s": round(evb_s, 4),
        "event_batched_vs_event": round(ev_s / evb_s, 2),
        "event_bit_identical": bool(ev_m == evb_m),
        "memory": _memory_peaks(QUICK_MEM if quick else FULL_MEM),
        "chunked_ps": _chunked_ps_agreement(params),
    }


def emit_json(results):
    path = ROOT / "BENCH_engines.json"
    payload = {
        "description": "the replication routes on one hypercube-greedy "
        "cell: the one-shot level sweep per replication, per-replication "
        "tasks and the default batch task (jobs=1, same process), both "
        "streaming each replication in chunks with per-arc carried state "
        "(the streamed_vs_oneshot ratio); plus the bounded-memory "
        "footprint of the chunked kernel, PS vs FIFO per packet on the "
        "same cell, the batched event calendar, and the seed's per-arc "
        "serve_level re-enacted verbatim as the historical baseline",
        **results,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def test_engines_benchmark():
    quick = True  # keep the pytest entry point CI-sized
    results = run_experiment(quick=quick)
    path = emit_json(results)
    assert results["bit_identical"]
    assert results["chunked_bit_identical"]
    assert results["per_replication_bit_identical"]
    assert results["memory"]["bit_identical"]
    assert results["chunked_ps"]["within_tolerance"]
    assert results["speedup_vs_seed"] > 1.0
    assert results["event_bit_identical"]
    assert results["event_batched_vs_event"] > 1.0
    assert "ps_vs_fifo" in results
    print(f"\n[written to {path}]")


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    results = run_experiment(quick=quick)
    path = emit_json(results)
    print(json.dumps(results, indent=1))
    print(f"written {path}")
    if not (
        results["bit_identical"]
        and results["chunked_bit_identical"]
        and results["per_replication_bit_identical"]
        and results["event_bit_identical"]
        and results["memory"]["bit_identical"]
    ):
        sys.exit("FAIL: execution paths are not bit-identical")
    if not results["chunked_ps"]["within_tolerance"]:
        sys.exit("FAIL: streamed PS deviates > 1e-9 from the one-shot sweep")
    if not quick and results["speedup_vs_seed"] < 3.0:
        sys.exit("FAIL: default route is not >= 3x the seed fan-out")
    if not quick and results["streamed_vs_oneshot"] < 0.9:
        sys.exit("FAIL: streamed sweep regressed below 0.9x the one-shot")
    if not quick and results["event_batched_vs_event"] < 2.0:
        sys.exit("FAIL: batched event calendar is not >= 2x sequential")
    if not quick and results["ps_vs_fifo"] > 3.0:
        sys.exit("FAIL: PS costs more than 3x FIFO per packet")

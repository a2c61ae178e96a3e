"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-fifo --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from the ``src/`` directory
beside this one.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it, and ``perfbench/results/``, hold
the full record: host, workload-specific figures, failed checks and,
for a traced run, the layer table and spans.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
RESULTS = ROOT / "perfbench" / "results"

#: set-ups per run (one in this process, the rest in fresh ones)
SETUP_SAMPLES = 3
#: fewest rounds (untraced) or traced/untraced pairs a run makes
MIN_ROUNDS = 3
MIN_TRACED = 2
#: spans kept in a traced run's trace file
MAX_SPANS = 20000

#: (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("packets_per_s", "packets/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics of a traced run
PER_LAYER = (
    ("import.repro_runner_s", "s"),
    ("import.scipy_stats_s", "s"),
    ("runner.spec.calls", "count"),
    ("runner.spec.busy_s", "s"),
    ("runner.store.reads", "count"),
    ("runner.store.read_busy_s", "s"),
    ("runner.store.hit_ratio", "ratio"),
    ("runner.store.writes", "count"),
    ("runner.store.write_busy_s", "s"),
    ("runner.engine.tasks", "count"),
    ("runner.engine.self_s", "s"),
    ("traffic.packets", "packets"),
    ("traffic.busy_s", "s"),
    ("traffic.ns_per_packet", "ns"),
    ("networks.build_topology_s", "s"),
    ("engines.feedforward.packets", "packets"),
    ("engines.feedforward.busy_s", "s"),
    ("engines.feedforward.ns_per_packet", "ns"),
    ("sim.feedforward.serve_fifo.rows", "count"),
    ("sim.feedforward.serve_fifo.busy_s", "s"),
    ("sim.feedforward.serve_ps.rows", "count"),
    ("sim.feedforward.serve_ps.busy_s", "s"),
    ("sim.feedforward.routing_self_s", "s"),
    ("sim.servers.ps_calls", "count"),
    ("sim.servers.ps_busy_s", "s"),
    ("engines.event.packets", "packets"),
    ("engines.event.busy_s", "s"),
    ("engines.event.ns_per_packet", "ns"),
    ("engines.fixedpoint.busy_s", "s"),
    ("sim.fixedpoint.sweep_rows", "count"),
    ("stats.ci_calls", "count"),
    ("stats.busy_s", "s"),
    ("serve.http.parse_s", "s"),
    ("serve.http.respond_s", "s"),
    ("serve.jobs.job_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.missing", "count"),
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample in a fresh interpreter
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_record(jobs: int) -> Dict[str, Any]:
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0))
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "jobs": jobs,
        # results with different keys measure different parallelism
        "comparable_key": f"jobs={jobs};cores={cores}",
    }


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_in_fresh_process(args: argparse.Namespace) -> float:
    """Seconds one set-up takes in a new interpreter, as it reports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_seconds(importtime_log: str, package: str) -> float:
    """Seconds a ``-X importtime`` log spends importing *package* and
    its submodules, counting each outermost such import once."""
    rows = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total = 0
    stack: List[Tuple[int, str]] = []
    # a module is logged after its imports: its parent is the next
    # line with a smaller indent
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(n == package or n.startswith(package + ".") for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total / 1e6


def import_times(samples: int = 3) -> Dict[str, float]:
    """Fresh-interpreter ``import repro.runner`` wall, and the part of
    it ``-X importtime`` attributes to ``scipy.stats``."""
    from perfbench.summary import median

    code = ("import time; t = time.perf_counter(); import repro.runner; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runner_s: List[float] = []
    scipy_s: List[float] = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        runner_s.append(float(proc.stdout.strip().splitlines()[-1]))
        scipy_s.append(import_seconds(proc.stderr, "scipy.stats"))
    return {"repro_runner_s": median(runner_s), "scipy_stats_s": median(scipy_s)}


def layer_metrics(totals: Dict[str, Any], rounds: int, imports: Dict[str, float],
                  job_s: Sequence[float], overhead: float, missing: Sequence[str]
                  ) -> Dict[str, float]:
    """The :data:`PER_LAYER` values from per-layer span totals summed
    over *rounds* traced rounds; times and counts are per round."""
    from perfbench.spans import LayerTotals
    from perfbench.summary import median

    def tot(layer: str) -> LayerTotals:
        return totals.get(layer, LayerTotals())

    def busy(layer: str) -> float:
        return tot(layer).busy_ns / 1e9 / rounds

    def count(layer: str, key: str) -> float:
        return tot(layer).counts.get(key, 0) / rounds

    def per_packet(layer: str) -> float:
        packets = tot(layer).counts.get("packets", 0)
        return tot(layer).busy_ns / packets if packets else 0.0

    reads = tot("runner.store.read")
    out = {
        "import.repro_runner_s": imports["repro_runner_s"],
        "import.scipy_stats_s": imports["scipy_stats_s"],
        "runner.spec.calls": tot("runner.spec").calls / rounds,
        "runner.spec.busy_s": busy("runner.spec"),
        "runner.store.reads": reads.calls / rounds,
        "runner.store.read_busy_s": busy("runner.store.read"),
        "runner.store.hit_ratio": reads.counts.get("hits", 0) / reads.calls if reads.calls else 0.0,
        "runner.store.writes": tot("runner.store.write").calls / rounds,
        "runner.store.write_busy_s": busy("runner.store.write"),
        "runner.engine.tasks": count("runner.engine", "tasks"),
        "runner.engine.self_s": tot("runner.engine").self_ns / 1e9 / rounds,
        "traffic.packets": count("traffic", "packets"),
        "traffic.busy_s": busy("traffic"),
        "traffic.ns_per_packet": per_packet("traffic"),
        "networks.build_topology_s": busy("networks.build_topology"),
        "sim.feedforward.routing_self_s": tot("engines.feedforward").self_ns / 1e9 / rounds,
        "sim.servers.ps_calls": tot("sim.servers.ps").calls / rounds,
        "sim.servers.ps_busy_s": busy("sim.servers.ps"),
        "engines.fixedpoint.busy_s": busy("engines.fixedpoint"),
        "sim.fixedpoint.sweep_rows": count("sim.fixedpoint", "sweep_rows"),
        "stats.ci_calls": tot("stats.ci").calls / rounds,
        "stats.busy_s": busy("stats.ci"),
        "serve.http.parse_s": busy("serve.http.parse"),
        "serve.http.respond_s": busy("serve.http.respond"),
        "serve.jobs.job_s": median(job_s) if job_s else 0.0,
        "trace.overhead": overhead,
        "trace.missing": float(len(missing)),
    }
    for engine in ("feedforward", "event"):
        layer = f"engines.{engine}"
        out[f"{layer}.packets"] = count(layer, "packets")
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.ns_per_packet"] = per_packet(layer)
    for disc in ("fifo", "ps"):
        layer = f"sim.feedforward.serve_{disc}"
        out[f"{layer}.rows"] = count(layer, "rows")
        out[f"{layer}.busy_s"] = busy(layer)
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def timed_rounds(wl: Any, seconds: float) -> List[Dict[str, Any]]:
    rounds: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(wl.round())
    return rounds


def run(args: argparse.Namespace, run_dir: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Set up, measure and check one workload; returns the result line
    and the full record."""
    from perfbench.spans import TARGETS, Tracer, aggregate
    from perfbench.summary import check_name, median
    from perfbench.workloads import WORKLOADS, Checks

    startup = time.perf_counter() - _T0
    setup_samples = []
    if not args.trace:
        setup_samples = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    checks = Checks()
    wl = WORKLOADS[args.workload](args.seed, run_dir, checks)
    t0 = time.perf_counter()
    try:
        wl.setup()
        setup_samples.append(startup + time.perf_counter() - t0)
        record: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace}
        if not args.trace:
            rounds = timed_rounds(wl, args.seconds)
            rates = [r["packets"] / r["sim_s"] for r in rounds]
            metrics = {
                "setup_s": median(setup_samples),
                "wall_s": median([r["wall_s"] for r in rounds]),
                "packets_per_s": median(rates),
            }
            extra = wl.metrics()
            record["round_wall_s"] = [r["wall_s"] for r in rounds]
            record["setup_samples_s"] = setup_samples
        else:
            tracer = Tracer(TARGETS)
            plain: List[float] = []
            traced: List[float] = []
            deadline = time.perf_counter() + args.seconds
            while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
                plain.append(wl.round()["wall_s"])
                traced.append(wl.traced_round(tracer)["wall_s"])
            totals = aggregate(tracer.spans, wl.keep_span)
            overhead = median(traced) / median(plain)
            metrics = layer_metrics(totals, len(traced), import_times(), wl.job_seconds(),
                                    overhead, tracer.missing)
            extra = {}
            record["traced_rounds"] = len(traced)
            record["untraced_wall_s"] = plain
            record["traced_wall_s"] = traced
            record["missing"] = tracer.missing
            record["layers"] = {
                layer: {"calls": t.calls, "busy_s": t.busy_ns / 1e9, "self_s": t.self_ns / 1e9,
                        **t.counts}
                for layer, t in sorted(totals.items())
            }
            record["spans"] = [sp.to_dict() for sp in tracer.spans[-MAX_SPANS:]]
    finally:
        wl.close()
    units = dict(END_TO_END) if not args.trace else dict(PER_LAYER)
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    result_metrics = {check_name(k): {"value": float(metrics[k]), "unit": units[k]}
                      for k in units}
    record["host"] = host_record(wl.jobs)
    record["metrics"] = {**result_metrics, **extra,
                         "fail_frac": {"value": checks.failed / max(checks.attempted, 1),
                                       "unit": "ratio"}}
    record["ci95_outside_bracket"] = checks.ci95_outside
    record["attempted"] = checks.attempted
    record["failed"] = checks.failed
    record["failures"] = checks.failures
    line = {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": result_metrics}
    return line, record


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    args = parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    # every run gets its own store, serve state and temp files
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tmp = run_dir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    try:
        if args.setup_only:
            from perfbench.workloads import WORKLOADS, Checks

            wl = WORKLOADS[args.workload](args.seed, run_dir, Checks())
            try:
                wl.setup()
                print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            finally:
                wl.close()
            return 0
        line, record = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    summary = {k: v for k, v in record.items() if k != "spans" and k != "layers"}
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

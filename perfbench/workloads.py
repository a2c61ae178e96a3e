"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed in :meth:`setup`,
then runs identical *rounds* until the timed phase is over.  A round
is the unit ``wall_s`` times; every operation in it is checked and
counted in :class:`Checks`.  A traced round does the same work with
the :mod:`perfbench.spans` wrappers installed (phase ``"main"``), plus
a ``jobs=1`` repeat (phase ``"repeat"``) of whatever work the round
hands to pool workers, whose spans the parent cannot see.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.spans import Tracer, is_worker_layer
from perfbench.summary import median, timing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Checks:
    """Output checks: every operation attempted, and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: cells whose 95% interval misses the bracket (reported, not failed)
        self.ci95_outside = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def cell(self, m: Any, what: str, ok: bool = True) -> bool:
        """Check one simulated cell against the paper's bracket (and
        *ok*, the caller's other conditions on it)."""
        if m.ci is not None and not (m.ci.lo <= m.upper_bound and m.ci.hi >= m.lower_bound):
            self.ci95_outside += 1
        return self.record(
            ok and ci_overlaps_bracket(m),
            f"{what}: 99.9% CI {replication_ci(m)} vs [{m.lower_bound}, {m.upper_bound}]",
        )


#: two-sided 99.9% Student-t quantiles t(0.9995, k) for k = 1..30
#: degrees of freedom, and the normal quantile beyond
T999 = (
    636.6192, 31.5991, 12.9240, 8.6103, 6.8688, 5.9588, 5.4079, 5.0413, 4.7809, 4.5869,
    4.4370, 4.3178, 4.2208, 4.1405, 4.0728, 4.0150, 3.9651, 3.9216, 3.8834, 3.8495,
    3.8193, 3.7921, 3.7676, 3.7454, 3.7251, 3.7066, 3.6896, 3.6739, 3.6594, 3.6460,
)
Z999 = 3.2905


def replication_ci(m: Any) -> Optional[Tuple[float, float]]:
    """``(lo, hi)`` of the 99.9% Student-t interval of *m*'s replication
    means, or ``None`` with fewer than two replications."""
    x = m.replication_delays or ()
    n = len(x)
    if n < 2:
        return None
    mean = sum(x) / n
    sd = (sum((v - mean) ** 2 for v in x) / (n - 1)) ** 0.5
    half = (T999[n - 2] if n - 1 <= len(T999) else Z999) * sd / n ** 0.5
    return mean - half, mean + half


def ci_overlaps_bracket(m: Any) -> bool:
    """The replication-mean confidence interval meets the paper's
    bracket ``[lower, upper]`` (no bracket is ``(-inf, inf)``, which
    every interval meets).

    The point estimate is not used: a PS network's mean delay *is* the
    upper bound, so PS estimates fall on either side of it.  The
    interval is 99.9%, not 95%, for the same reason: a 95% interval
    around a mean that sits on the bound lies wholly above it in 2.5%
    of seeds (3 of 120 seeds of the butterfly PS cell), and a run makes
    many such checks.
    """
    ci = replication_ci(m)
    if ci is None:
        return False
    return ci[0] <= m.upper_bound and ci[1] >= m.lower_bound


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def subprocess_env(cache_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class Workload:
    """One named workload; subclasses fill in :meth:`setup`,
    :meth:`round` and :meth:`traced_round`."""

    name = ""
    #: does the ``"repeat"`` phase replace the main phase's worker-side
    #: layers (the round's whole pool work is repeated in process)?
    repeat_replaces_worker_layers = False

    def __init__(self, seed: int, run_dir: Path, checks: Checks) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.checks = checks
        self.jobs = 1
        self.cache_dir = run_dir / "cache"
        self._fresh = 0
        #: set while a traced round runs, so each operation tags its spans
        self.tracer: Optional[Tracer] = None

    def op(self) -> Any:
        """Context of one user-level operation (one id for its spans)."""
        return self.tracer.operation() if self.tracer is not None else contextlib.nullcontext()

    @contextlib.contextmanager
    def traced(self, tracer: Tracer, phase: str) -> Any:
        with tracer.installed(phase):
            self.tracer = tracer
            try:
                yield
            finally:
                self.tracer = None

    def fresh_dir(self, stem: str) -> Path:
        self._fresh += 1
        path = self.run_dir / f"{stem}-{self._fresh}"
        path.mkdir()
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Dict[str, Any]:
        """One untraced round: ``wall_s`` plus whatever else the
        workload reports (``packets`` and ``sim_s`` for the packet
        rate)."""
        raise NotImplementedError

    def traced_round(self, tracer: Tracer) -> Dict[str, Any]:
        raise NotImplementedError

    def keep_span(self, sp: Any) -> bool:
        if sp.phase == "repeat":
            return is_worker_layer(sp.layer)
        return not (self.repeat_replaces_worker_layers and is_worker_layer(sp.layer))

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Workload-specific end-to-end figures beyond the shared ones."""
        return {}

    def job_seconds(self) -> List[float]:
        """Durations of the server jobs the rounds ran."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep-fifo
# ---------------------------------------------------------------------------

#: (network, d, rho): the delay-vs-load curves of Props 12/13 and 14/17
SWEEP_CELLS = [("hypercube", 10, rho) for rho in (0.3, 0.5, 0.7, 0.9)] + [
    ("butterfly", 8, rho) for rho in (0.5, 0.8)
]
SWEEP_HORIZON = 60.0
SWEEP_REPLICATIONS = 8


def sweep_specs(seed: int) -> List[Any]:
    from repro.runner import ScenarioSpec

    return [
        ScenarioSpec(
            name=f"sweep-{net}-d{d}-rho{rho}",
            network=net,
            d=d,
            rho=rho,
            horizon=SWEEP_HORIZON,
            replications=SWEEP_REPLICATIONS,
            base_seed=seed,
            engine="feedforward",
        )
        for net, d, rho in SWEEP_CELLS
    ]


class SweepFifo(Workload):
    """A cold ``repro sweep``: one ``measure_many`` call over the FIFO
    feed-forward cells, at ``jobs = min(2, cores)``, into a fresh empty
    store each round."""

    name = "sweep-fifo"
    repeat_replaces_worker_layers = True

    def setup(self) -> None:
        from repro.runner import measure_many

        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.specs = sweep_specs(self.seed)
        built = set()
        for spec in self.specs:
            if (spec.network, spec.d) not in built:
                spec.network_plugin.build_topology(spec)
                built.add((spec.network, spec.d))
        # load the lazily imported kernels and start-up paths once
        measure_many([s.replace(d=3, horizon=20.0, replications=2) for s in self.specs[::4]],
                     jobs=self.jobs)
        self.reference: Optional[List[str]] = None

    def _sweep(self, jobs: int) -> Tuple[float, List[Any], Path]:
        from repro.runner import ResultsStore, measure_many

        store_dir = self.fresh_dir("store")
        store = ResultsStore(store_dir)
        t0 = time.perf_counter()
        with self.op():
            ms = measure_many(self.specs, jobs=jobs, store=store)
        return time.perf_counter() - t0, ms, store_dir

    def _check(self, ms: List[Any], store_dir: Path) -> List[str]:
        from repro.runner import ResultsStore
        from repro.runner.results import measurement_to_dict

        store = ResultsStore(store_dir)
        got = [canonical(measurement_to_dict(m)) for m in ms]
        if self.reference is None:
            self.reference = got
        for i, (spec, m) in enumerate(zip(self.specs, ms)):
            self.checks.cell(
                m,
                f"{spec.name} (or cell not written, or differs from the first round)",
                store.path_for(spec).is_file() and got[i] == self.reference[i],
            )
        shutil.rmtree(store_dir)
        return got

    def round(self) -> Dict[str, Any]:
        wall, ms, store_dir = self._sweep(self.jobs)
        self._check(ms, store_dir)
        packets = sum(m.num_packets for m in ms)
        return {"wall_s": wall, "packets": packets, "sim_s": wall}

    def traced_round(self, tracer: Tracer) -> Dict[str, Any]:
        with self.traced(tracer, "main"):
            wall, ms, store_dir = self._sweep(self.jobs)
        with self.traced(tracer, "repeat"):
            _, ms1, store_dir1 = self._sweep(1)
        got = self._check(ms, store_dir)
        got1 = self._check(ms1, store_dir1)
        self.checks.record(got == got1, f"jobs={self.jobs} and jobs=1 sweeps differ")
        return {"wall_s": wall}


# ---------------------------------------------------------------------------
# ps-cyclic
# ---------------------------------------------------------------------------

#: cells the levelled FIFO sweep never runs: PS on both levelled
#: engines, the event engine's sparse FIFO calendar, and the
#: fixed-point solver of a cyclic network
PS_CELLS = (
    dict(name="ps-hypercube-feedforward", discipline="ps", d=9, rho=0.5,
         horizon=20.0, replications=4, engine="feedforward"),
    dict(name="ps-butterfly-event", network="butterfly", discipline="ps", d=6,
         rho=0.5, horizon=40.0, replications=4, engine="event"),
    dict(name="sparse-random-order-event", scheme="random_order", d=3, rho=0.1,
         horizon=8000.0, replications=3, engine="event"),
    dict(name="torus-fixedpoint", network="torus", d=2, rho=0.7,
         horizon=400.0, replications=4, engine="fixedpoint"),
)


def ps_specs(seed: int) -> List[Any]:
    from repro.runner import ScenarioSpec

    return [ScenarioSpec(base_seed=seed, **cell) for cell in PS_CELLS]


class PsCyclic(Workload):
    """PS, event-calendar and fixed-point cells, one ``measure`` call
    each at ``jobs=1`` with no store."""

    name = "ps-cyclic"

    def setup(self) -> None:
        from repro.runner import measure

        self.specs = ps_specs(self.seed)
        for spec in self.specs:
            spec.network_plugin.build_topology(spec)
            measure(spec.replace(d=min(spec.d, 3), horizon=20.0, replications=2))
        self.reference: Optional[List[str]] = None
        self.cell_walls: Dict[str, List[float]] = {s.name: [] for s in self.specs}
        self.cell_packets: Dict[str, int] = {}

    def _cells(self) -> Tuple[List[float], List[Any]]:
        from repro.runner import measure

        ms, walls = [], []
        for spec in self.specs:
            t0 = time.perf_counter()
            with self.op():
                ms.append(measure(spec, jobs=1))
            walls.append(time.perf_counter() - t0)
        return walls, ms

    def _check(self, ms: List[Any]) -> None:
        from repro.runner.results import measurement_to_dict

        got = [canonical(measurement_to_dict(m)) for m in ms]
        if self.reference is None:
            self.reference = got
        for i, (spec, m) in enumerate(zip(self.specs, ms)):
            self.checks.cell(
                m, f"{spec.name} (or differs from the first round)", got[i] == self.reference[i]
            )

    def round(self) -> Dict[str, Any]:
        walls, ms = self._cells()
        self._check(ms)
        for spec, m, wall in zip(self.specs, ms, walls):
            self.cell_walls[spec.name].append(wall)
            self.cell_packets[spec.name] = m.num_packets
        wall = sum(walls)
        return {"wall_s": wall, "packets": sum(m.num_packets for m in ms), "sim_s": wall}

    def traced_round(self, tracer: Tracer) -> Dict[str, Any]:
        with self.traced(tracer, "main"):
            walls, ms = self._cells()
        self._check(ms)
        return {"wall_s": sum(walls)}

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        out = {}
        for name, walls in self.cell_walls.items():
            if walls:
                out[f"cell.{name}.us_per_packet"] = {
                    "value": 1e6 * median(walls) / max(self.cell_packets[name], 1),
                    "unit": "us",
                    "n": len(walls),
                }
        return out


# ---------------------------------------------------------------------------
# cache-hit
# ---------------------------------------------------------------------------

#: registered scenarios computed into the store at set-up
CATALOG = (
    "smoke",
    "hypercube-greedy-light",
    "hypercube-greedy-mid",
    "butterfly-greedy-mid",
    "butterfly-greedy-asym",
    "ring-greedy",
)
#: the ones ``repro run`` reads back
CLI_SCENARIOS = ("smoke", "butterfly-greedy-mid", "hypercube-greedy-light")
HITS_PER_ROUND = 300
GROW_BASE = dict(name="grow", d=6, rho=0.3, horizon=200.0, replications=2)
MISS_BASE = dict(name="miss", d=5, rho=0.5, horizon=50.0, replications=4)
TERMINAL = ("done", "failed", "cancelled")


def catalog_specs(seed: int) -> List[Any]:
    from repro.runner import get_scenario

    return [get_scenario(n).replace(base_seed=seed) for n in CATALOG]


class HttpClient:
    """Closed-loop client: one request at a time, each waited for."""

    def __init__(self, port: int) -> None:
        self.port = port

    def _conn(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def post(self, path: str, payload: Any) -> Tuple[int, Any]:
        conn = self._conn()
        try:
            conn.request("POST", path, body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def terminal_event(self, path: str) -> Tuple[str, Any]:
        """Follow a job's server-sent events to its terminal one."""
        conn = self._conn()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            event = ""
            while True:
                line = resp.readline()
                if not line:
                    raise RuntimeError(f"event stream {path} ended before a terminal event")
                text = line.decode().rstrip("\r\n")
                if text.startswith("event: "):
                    event = text[len("event: "):]
                elif text.startswith("data: ") and event in TERMINAL:
                    return event, json.loads(text[len("data: "):])
        finally:
            conn.close()


class CacheHit(Workload):
    """Read a pre-computed catalog back along the four user paths:
    in-process ``measure`` hits, HTTP hits, ``repro run`` processes,
    and writes beside the reads (grows and HTTP misses)."""

    name = "cache-hit"

    def setup(self) -> None:
        from repro.runner import ResultsStore, ScenarioSpec, measure
        from repro.runner.results import measurement_to_dict
        from repro.serve.app import ServerThread

        self.store = ResultsStore(self.cache_dir)
        self.specs = catalog_specs(self.seed)
        self.spec_dicts = [s.to_dict() for s in self.specs]
        self.recorded = []
        for spec in self.specs:
            m = measure(spec, store=self.store)
            self.checks.cell(m, f"catalog {spec.name}")
            self.recorded.append(canonical(measurement_to_dict(m)))
        self.grow_spec = ScenarioSpec(base_seed=self.seed, **GROW_BASE)
        self.grow_packets = measure(self.grow_spec, store=self.store).num_packets
        self.misses = 0
        self.cli_index = 0
        self.samples: Dict[str, List[float]] = {
            k: [] for k in ("hit", "http_hit", "cli_hit", "grow", "http_miss", "job")
        }
        self.server = ServerThread(workers=1, cache_dir=str(self.cache_dir), poll_interval=0.01)
        self.server.start()
        self.client = HttpClient(self.server.port)
        # one miss starts the job pool's worker before timing
        self._http_miss()
        self.samples["job"].clear()

    def _miss_spec(self) -> Any:
        from repro.runner import ScenarioSpec

        self.misses += 1
        return ScenarioSpec(base_seed=self.seed * 1000 + self.misses, **MISS_BASE)

    def _hits(self) -> float:
        from repro.runner import ScenarioSpec, measure
        from repro.runner.results import measurement_to_dict

        total = 0.0
        for i in range(HITS_PER_ROUND):
            k = i % len(self.specs)
            t0 = time.perf_counter()
            with self.op():
                m = measure(ScenarioSpec.from_dict(self.spec_dicts[k]), store=self.store)
            dt = time.perf_counter() - t0
            total += dt
            self.samples["hit"].append(dt)
            self.checks.record(
                canonical(measurement_to_dict(m)) == self.recorded[k],
                f"in-process hit {self.specs[k].name} differs from set-up",
            )
        return total

    def _http_hits(self) -> float:
        total = 0.0
        for i in range(HITS_PER_ROUND):
            k = i % len(self.specs)
            t0 = time.perf_counter()
            with self.op():
                status, body = self.client.post("/v1/measure", self.spec_dicts[k])
            dt = time.perf_counter() - t0
            total += dt
            self.samples["http_hit"].append(dt)
            self.checks.record(
                status == 200
                and body.get("cache") == "hit"
                and canonical(body.get("result")) == self.recorded[k],
                f"HTTP hit {self.specs[k].name}: status {status}, cache {body.get('cache')}",
            )
        return total

    def _cli_hit(self) -> float:
        name = CLI_SCENARIOS[self.cli_index % len(CLI_SCENARIOS)]
        self.cli_index += 1
        cmd = [sys.executable, "-m", "repro", "run", name, "--seed", str(self.seed),
               "--cache-dir", str(self.cache_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=self.run_dir, env=subprocess_env(self.cache_dir))
        dt = time.perf_counter() - t0
        self.samples["cli_hit"].append(dt)
        self.checks.record(
            proc.returncode == 0 and "results cache" in proc.stdout,
            f"repro run {name}: exit {proc.returncode}, {proc.stderr.strip()[-200:]}",
        )
        return dt

    def _grow(self) -> Tuple[float, int]:
        from repro.runner import measure

        spec = self.grow_spec.replace(replications=self.grow_spec.replications + 1)
        t0 = time.perf_counter()
        with self.op():
            m = measure(spec, store=self.store)
        dt = time.perf_counter() - t0
        self.samples["grow"].append(dt)
        packets = m.num_packets - self.grow_packets
        self.grow_spec, self.grow_packets = spec, m.num_packets
        self.checks.cell(m, f"grow to R={spec.replications}")
        return dt, packets

    def _http_miss(self) -> Tuple[float, Any]:
        from repro.runner.results import measurement_from_dict

        spec = self._miss_spec()
        t0 = time.perf_counter()
        status, body = self.client.post("/v1/measure", spec.to_dict())
        event, snap = ("", {})
        if status == 202:
            event, snap = self.client.terminal_event(body["events"])
        dt = time.perf_counter() - t0
        what = f"HTTP miss {spec.base_seed}: status {status}, event {event}"
        if status == 202 and event == "done":
            self.samples["job"].append(snap["finished"] - snap["created"])
            self.checks.cell(measurement_from_dict(snap["result"]), what)
        else:
            self.checks.record(False, what)
        return dt, spec

    def _round(self) -> Tuple[Dict[str, Any], Any]:
        t0 = time.perf_counter()
        self._hits()
        self._http_hits()
        self._cli_hit()
        grow_s, packets = self._grow()
        miss_s, miss_spec = self._http_miss()
        self.samples["http_miss"].append(miss_s)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "packets": packets, "sim_s": grow_s}, miss_spec

    def round(self) -> Dict[str, Any]:
        return self._round()[0]

    def traced_round(self, tracer: Tracer) -> Dict[str, Any]:
        from repro.runner import measure

        with self.traced(tracer, "main"):
            out, miss_spec = self._round()
        # the miss ran in the job pool: repeat its simulation in process
        with self.traced(tracer, "repeat"), self.op():
            measure(miss_spec, jobs=1)
        return {"wall_s": out["wall_s"]}

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        ms = [1e3 * x for x in self.samples["hit"]]
        http_ms = [1e3 * x for x in self.samples["http_hit"]]
        out = {**timing("hit", "ms", ms), **timing("http_hit", "ms", http_ms)}
        for key in ("cli_hit", "grow", "http_miss"):
            vals = self.samples[key]
            out[f"{key}_s"] = {"value": median(vals), "unit": "s", "n": len(vals)}
        return out

    def job_seconds(self) -> List[float]:
        return list(self.samples["job"])

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            # stop() does not wait for the job pool's worker process
            server.server.manager.executor.shutdown(wait=True)


WORKLOADS: Dict[str, Callable[[int, Path, Checks], Workload]] = {
    "sweep-fifo": SweepFifo,
    "ps-cyclic": PsCyclic,
    "cache-hit": CacheHit,
}

"""Start-up baseline: what a ``repro`` process costs before it computes.

Emits ``BENCH_cli.json`` at the **repo root**, next to
``BENCH_engines.json`` and ``BENCH_serve.json``.  Every timing is the
median wall-clock of fresh interpreters, measured from the parent
process around ``subprocess.run`` (so interpreter start-up counts):

* ``numpy_floor_s`` — ``python -c "import numpy"``, the floor no
  repro process can go below;
* ``import_runner_s`` — ``python -c "import repro.runner"``;
* ``cli_hit_s`` — ``python -m repro run smoke`` answered from a warm
  results cache;
* ``cli_cold_s`` — the same command into an empty cache (simulates,
  pools the interval, writes the cells).

The four commands run round-robin, so drift on the host lands on all
of them alike.  ``host.bytecode_cache`` records whether the processes
could write ``__pycache__``: with ``PYTHONDONTWRITEBYTECODE`` set, every
process compiles repro's modules from source, which adds tens of
milliseconds that numpy (installed with its bytecode) does not pay.  ``cli_hit_vs_numpy_floor`` is the gated number (CI
asserts it stays ≤ 3.0 on a ``--quick`` run): a ratio to the host's
own numpy import, not absolute milliseconds, because runners differ.

Run with::

    python benchmarks/bench_cli.py            # full (the pinned JSON)
    python benchmarks/bench_cli.py --quick    # CI smoke sizes
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SAMPLES = 11
QUICK_SAMPLES = 5
SCENARIO = "smoke"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _wall(argv, cwd: Path, env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} failed: {proc.stderr.strip()[-400:]}")
    return dt


def run_experiment(samples: int) -> dict:
    env = _env()
    py = sys.executable
    with tempfile.TemporaryDirectory(prefix="repro-bench-cli-") as tmp:
        tmp = Path(tmp)
        warm = tmp / "warm"
        run = [py, "-m", "repro", "run", SCENARIO, "--cache-dir"]
        _wall(run + [str(warm)], tmp, env)  # prime the hit cache
        walls = {
            key: []
            for key in ("numpy_floor_s", "import_runner_s", "cli_hit_s", "cli_cold_s")
        }
        for i in range(samples):
            for key, argv in (
                ("numpy_floor_s", [py, "-c", "import numpy"]),
                ("import_runner_s", [py, "-c", "import repro.runner"]),
                ("cli_hit_s", run + [str(warm)]),
                ("cli_cold_s", run + [str(tmp / f"cold{i}")]),
            ):
                walls[key].append(_wall(argv, tmp, env))
    med = {key: statistics.median(v) for key, v in walls.items()}
    floor = med["numpy_floor_s"]
    return {
        **{key: round(v, 4) for key, v in med.items()},
        "samples": samples,
        "spread_s": {
            key: [round(min(v), 4), round(max(v), 4)] for key, v in walls.items()
        },
        "import_runner_vs_numpy_floor": round(med["import_runner_s"] / floor, 2),
        "cli_hit_vs_numpy_floor": round(med["cli_hit_s"] / floor, 2),
        "cli_cold_vs_numpy_floor": round(med["cli_cold_s"] / floor, 2),
    }


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # without cached bytecode every process recompiles repro's modules
        "bytecode_cache": not sys.dont_write_bytecode,
    }


def main() -> int:
    quick = "--quick" in sys.argv
    payload = {
        "benchmark": "cli",
        "description": "median wall of fresh interpreters: the bare numpy "
        f"import (the floor), import repro.runner, and repro run {SCENARIO} "
        "as a results-cache hit and into an empty cache",
        "quick": quick,
        "host": host_record(),
        **run_experiment(QUICK_SAMPLES if quick else SAMPLES),
    }
    path = ROOT / "BENCH_cli.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=1, sort_keys=True))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

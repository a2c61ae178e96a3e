"""Import contract: the cold-start path pays for numpy and repro only.

``scipy.stats`` costs about a second to import (it drags in
``scipy.sparse``, ``scipy.spatial`` and ``scipy.linalg``) and
``networkx`` another ~0.15 s, while the CLI needs neither: the interval
quantile comes from ``scipy.special`` on first use and the networkx
adapters import it inside the function.  Each case runs in a fresh
interpreter and inspects ``sys.modules``, so an eager import creeping
back fails here instead of only showing up as a slower cache hit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
HEAVY = ("scipy.stats", "scipy.special", "networkx")


def _loaded_after(code: str, cwd: Path) -> set:
    """Which of :data:`HEAVY` a fresh interpreter has loaded after *code*."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("module", ["repro", "repro.runner"])
def test_package_import_loads_no_heavy_module(module, tmp_path):
    assert _loaded_after(f"import {module}", tmp_path) == set()


def test_cli_run_imports_only_the_quantile_and_only_when_it_computes(tmp_path):
    cache = tmp_path / "cache"
    run = (
        "from repro.__main__ import main\n"
        f"assert main(['run', 'smoke', '--cache-dir', {str(cache)!r}]) == 0"
    )
    # a cold run pools an interval: it needs the t quantile, nothing more
    assert _loaded_after(run, tmp_path) == {"scipy.special"}
    # a cache hit computes nothing
    assert _loaded_after(run, tmp_path) == set()


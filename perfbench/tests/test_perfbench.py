"""Tests of the benchmark's own code (run: python -m pytest perfbench/tests -q)."""

from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, spans, summary, workloads
from perfbench.spans import Span, Target, Tracer, aggregate, self_time

ROOT = Path(__file__).resolve().parents[2]


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize("name", ["wall_s", "runner.store.hit_ratio", "hit_p99_ms", "9x", "a-b"])
def test_metric_name_accepted(name):
    assert summary.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "p99/ms", "x" * 65, "naïve"])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        summary.check_name(name)


def test_benchmark_json_registers_exactly_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    for name, _ in run.END_TO_END + run.PER_LAYER:
        summary.check_name(name)


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (1009, 99.0), (10000, 99.9), (200, 95.0), (100, 90.0), (99, 75.0), (39, None)],
)
def test_tail_reports_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(n))
    got = summary.tail(values)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    assert sum(v > got[1] for v in values) >= summary.MIN_BEYOND


def test_timing_omits_tail_without_enough_samples():
    out = summary.timing("hit", "ms", [1.0, 2.0, 3.0])
    assert set(out) == {"hit_p50_ms"}
    assert out["hit_p50_ms"] == {"value": 2.0, "unit": "ms", "n": 3}
    out = summary.timing("hit", "ms", [float(i) for i in range(1000)])
    assert set(out) == {"hit_p50_ms", "hit_p99_ms"}


# -- self time and aggregation ------------------------------------------------


def _span(i, layer, start, end, parent=None, counts=None):
    return Span(i, parent, layer, "", "main", None, start, end, dict(counts or {}))


def test_self_time_subtracts_union_of_children():
    parent = _span(1, "a", 0, 100)
    kids = [_span(2, "b", 10, 30, parent), _span(3, "b", 20, 50, parent),
            _span(4, "c", 90, 120, parent)]
    # covered: [10, 50) and [90, 100) -> 50
    assert self_time(parent, kids) == 50
    assert self_time(parent, []) == 100


def test_aggregate_counts_nested_same_layer_once():
    outer = _span(1, "traffic", 0, 100, counts={"packets": 10})
    inner = _span(2, "traffic", 10, 40, outer, counts={"packets": 10})
    serve = _span(3, "serve", 50, 80, outer)
    engine = _span(4, "engine", 0, 200, counts={})
    batch = _span(5, "engine", 0, 150, engine, counts={"packets": 7})
    totals = aggregate([inner, serve, outer, batch, engine])
    assert totals["traffic"].calls == 1
    assert totals["traffic"].busy_ns == 100
    assert totals["traffic"].counts == {"packets": 10}
    assert totals["traffic"].self_ns == (100 - 30 - 30) + 30
    # the outer engine span reports no packets, so the inner one counts
    assert totals["engine"].counts == {"packets": 7}
    assert totals["engine"].busy_ns == 200


def test_aggregate_keep_filters_layers_but_self_time_sees_all_children():
    outer = _span(1, "runner", 0, 100)
    child = _span(2, "traffic", 0, 60, outer)
    totals = aggregate([child, outer], keep=lambda sp: sp.layer == "runner")
    assert set(totals) == {"runner"}
    assert totals["runner"].self_ns == 40


# -- wrappers -----------------------------------------------------------------


def _fake_module(monkeypatch):
    mod = types.ModuleType("fakepkg.layer")

    def work(x, scale=1):
        return [x] * scale

    class Thing:
        def go(self, n):
            return n + 1

        @classmethod
        def make(cls):
            return cls()

    mod.work, mod.Thing = work, Thing
    user = types.ModuleType("fakepkg.user")
    user.work = work  # as if imported with "from fakepkg.layer import work"
    monkeypatch.setitem(__import__("sys").modules, "fakepkg.layer", mod)
    monkeypatch.setitem(__import__("sys").modules, "fakepkg.user", user)
    return mod, user


def test_missing_targets_are_reported_not_raised(monkeypatch):
    mod, user = _fake_module(monkeypatch)
    tracer = Tracer([
        Target("fakepkg.layer", "work", "fake", lambda a, k, r: {"items": len(r)}),
        Target("fakepkg.layer", "gone", "fake"),
        Target("fakepkg.layer", "Gone.method", "fake"),
        Target("fakepkg.layer", "Thing.gone", "fake"),
        Target("fakepkg_missing", "work", "fake"),
    ])
    original = mod.work
    with tracer.installed():
        assert user.work is mod.work is not original
        assert user.work(3, scale=2) == [3, 3]
    assert mod.work is original and user.work is original
    assert tracer.missing == [
        "fakepkg.layer.gone",
        "fakepkg.layer.Gone.method",
        "fakepkg.layer.Thing.gone",
        "fakepkg_missing.work",
    ]
    (sp,) = tracer.spans
    assert (sp.layer, sp.counts) == ("fake", {"items": 2})


def test_method_wrappers_cover_subclasses_and_classmethods(monkeypatch):
    mod, _ = _fake_module(monkeypatch)

    class Sub(mod.Thing):
        def go(self, n):
            return super().go(n) * 10

    tracer = Tracer([
        Target("fakepkg.layer", "Thing.go", lambda a, k: f"layer.{type(a[0]).__name__}"),
        Target("fakepkg.layer", "Thing.make", "make"),
    ])
    with tracer.installed():
        assert Sub().go(1) == 20
        assert isinstance(mod.Thing.make(), mod.Thing)
    assert [sp.layer for sp in tracer.spans] == ["layer.Sub", "layer.Sub", "make"]
    assert isinstance(vars(mod.Thing)["make"], classmethod)
    assert Sub.go.__qualname__.endswith("Sub.go")


def test_every_package_target_resolves():
    tracer = Tracer(spans.TARGETS)
    with tracer.installed():
        pass
    assert tracer.missing == []


# -- checks -------------------------------------------------------------------


def _measurement(reps, lower, upper):
    return types.SimpleNamespace(replication_delays=tuple(reps), lower_bound=lower,
                                 upper_bound=upper)


def test_bracket_check_uses_the_replication_interval():
    # point estimate above the upper bound, interval reaching it: accepted
    assert workloads.ci_overlaps_bracket(_measurement([8.3, 8.5, 8.4, 8.45], 4.0, 8.33))
    assert not workloads.ci_overlaps_bracket(_measurement([8.0, 8.01, 8.02, 8.0], 4.0, 7.5))
    assert not workloads.ci_overlaps_bracket(_measurement([3.0, 3.05, 2.95, 3.0, 3.02], 4.0, 8.0))
    inf = float("inf")
    assert workloads.ci_overlaps_bracket(_measurement([3.0, 3.1], -inf, inf))
    assert not workloads.ci_overlaps_bracket(_measurement([5.0], 4.0, 8.0))


def test_replication_interval_matches_student_t():
    from scipy import stats

    assert workloads.T999 == pytest.approx(
        [stats.t.ppf(0.9995, k) for k in range(1, 31)], abs=1e-4)
    assert workloads.Z999 == pytest.approx(stats.norm.ppf(0.9995), abs=1e-4)
    x = [4.0, 5.5, 5.0, 4.5, 6.0]
    lo, hi = workloads.replication_ci(_measurement(x, 0, 0))
    ref = stats.t.interval(0.999, len(x) - 1, loc=np.mean(x), scale=stats.sem(x))
    assert (lo, hi) == pytest.approx(ref, rel=1e-4)


def test_import_seconds_counts_outermost_package_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.stats._a",
        "import time:       200 |        300 |   scipy.stats",
        "import time:        50 |         50 |     scipy.stats._late",
        "import time:        10 |         60 |   other",
        "import time:        40 |        400 | repro.stats",
    ])
    assert run.import_seconds(log, "scipy.stats") == pytest.approx((300 + 50) / 1e6)
    assert run.import_seconds(log, "numpy") == 0.0


# -- seeds --------------------------------------------------------------------


@pytest.mark.parametrize("build", [workloads.sweep_specs, workloads.ps_specs,
                                   workloads.catalog_specs])
def test_seed_fixes_the_inputs(build):
    same = [s.to_dict() for s in build(5)]
    assert same == [s.to_dict() for s in build(5)]
    assert same != [s.to_dict() for s in build(6)]


def test_seed_fixes_the_generated_traffic():
    from repro.rng import as_generator, replication_seeds

    def first_sample(seed):
        spec = workloads.catalog_specs(seed)[0]
        rep_seed = replication_seeds(spec.base_seed, spec.replications, spec.seed_policy)[0]
        return spec.network_plugin.build_workload(spec).generate(
            spec.horizon, as_generator(rep_seed)
        )

    a, b, c = first_sample(5), first_sample(5), first_sample(6)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.destinations, b.destinations)
    assert a.num_packets != c.num_packets or not np.array_equal(a.times, c.times)

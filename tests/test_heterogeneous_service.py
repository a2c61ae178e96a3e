"""The Prop 11 generality remark: levelled networks with per-arc
deterministic service times are also dominated by their PS versions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qnetwork import ExplicitLevelledSpec
from repro.errors import ConfigurationError
from repro.sim.feedforward import EXIT, serve_level, simulate_markovian


def _fig2_spec():
    return ExplicitLevelledSpec(
        levels=[0, 0, 1],
        routing={
            0: ([2, EXIT], [0.6, 0.4]),
            1: ([2, EXIT], [0.7, 0.3]),
        },
    )


class TestServeLevelPerArcService:
    def test_scalar_vs_array_consistency(self):
        arcs = np.array([0, 1, 0])
        times = np.array([0.0, 0.0, 0.1])
        pids = np.arange(3)
        dep_scalar, _ = serve_level(arcs, times, pids, service=2.0)
        dep_array, _ = serve_level(
            arcs, times, pids, service=np.array([2.0, 2.0])
        )
        np.testing.assert_allclose(dep_scalar, dep_array)

    def test_different_speeds(self):
        # arc 0 fast (0.5), arc 1 slow (3.0)
        arcs = np.array([0, 1])
        times = np.zeros(2)
        dep, _ = serve_level(
            arcs, times, np.arange(2), service=np.array([0.5, 3.0])
        )
        np.testing.assert_allclose(dep, [0.5, 3.0])

    def test_queueing_with_slow_server(self):
        arcs = np.zeros(3, dtype=np.int64)
        times = np.zeros(3)
        dep, _ = serve_level(
            arcs, times, np.arange(3), service=np.array([2.0])
        )
        np.testing.assert_allclose(np.sort(dep), [2.0, 4.0, 6.0])


    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    @pytest.mark.parametrize(
        "service",
        [
            np.array([-1.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([1.0, np.nan]),
            np.array([np.inf, 1.0]),
        ],
    )
    def test_rejects_invalid_per_arc_service(self, discipline, service):
        """Regression: FIFO returned departures before their arrivals
        (``[-1, -0.5, 1]``) for ``service=[-1, 0]``."""
        arcs = np.array([0, 0, 1])
        times = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            serve_level(arcs, times, np.arange(3), discipline, service)

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    @pytest.mark.parametrize("service", [0.0, -2.0, np.nan, np.inf])
    def test_rejects_invalid_scalar_service(self, discipline, service):
        with pytest.raises(ValueError):
            serve_level(
                np.array([0]), np.array([0.0]), np.array([0]),
                discipline, service,
            )

    def test_ps_per_arc_service(self):
        # arc 0 at work 2: both share from t=0, depart together at 4;
        # arc 1 alone at work 0.5
        dep, _ = serve_level(
            np.array([0, 1, 0]), np.zeros(3), np.arange(3), "ps",
            np.array([2.0, 0.5]),
        )
        np.testing.assert_array_equal(dep, [4.0, 0.5, 4.0])


class TestHeterogeneousMarkovian:
    def test_exit_times_reflect_services(self):
        spec = _fig2_spec()
        services = np.array([0.5, 2.0, 1.5])
        times = np.array([0.0])
        arcs = np.array([0])
        res = simulate_markovian(
            spec,
            times,
            arcs,
            decisions={0: np.array([2]), 2: np.array([EXIT])},
            service_times=services,
        )
        # 0.5 at S1 then 1.5 at S3
        assert res.exit_times[0] == pytest.approx(2.0)

    def test_validates_service_shape(self):
        spec = _fig2_spec()
        with pytest.raises(ConfigurationError):
            simulate_markovian(
                spec,
                np.array([0.0]),
                np.array([0]),
                service_times=np.array([1.0, 1.0]),
            )
        with pytest.raises(ConfigurationError):
            simulate_markovian(
                spec,
                np.array([0.0]),
                np.array([0]),
                service_times=np.array([1.0, -1.0, 1.0]),
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_property_domination_heterogeneous(self, seed):
        """Lemma 9/10 with per-arc service times: coupled FIFO network
        departures still never trail the PS network's."""
        gen = np.random.default_rng(seed)
        spec = _fig2_spec()
        services = gen.uniform(0.3, 3.0, size=3)
        n = int(gen.integers(1, 100))
        times = np.sort(gen.random(n) * 40.0)
        arcs = gen.integers(0, 2, size=n)
        fifo = simulate_markovian(
            spec,
            times,
            arcs,
            rng=seed,
            record_decisions=True,
            service_times=services,
        )
        ps = simulate_markovian(
            spec,
            times,
            arcs,
            discipline="ps",
            decisions=fifo.decisions,
            service_times=services,
        )
        ef, ep = np.sort(fifo.exit_times), np.sort(ps.exit_times)
        assert np.all(ef <= ep + 1e-9)

    def test_population_domination_heterogeneous(self):
        gen = np.random.default_rng(77)
        spec = _fig2_spec()
        services = np.array([0.7, 1.8, 1.2])
        n = 300
        times = np.sort(gen.random(n) * 100.0)
        arcs = gen.integers(0, 2, size=n)
        fifo = simulate_markovian(
            spec, times, arcs, rng=78, record_decisions=True,
            service_times=services,
        )
        ps = simulate_markovian(
            spec, times, arcs, discipline="ps",
            decisions=fifo.decisions, service_times=services,
        )
        grid = np.linspace(0, 300, 3001)
        nf = np.searchsorted(times, grid, side="right") - np.searchsorted(
            np.sort(fifo.exit_times), grid, side="right"
        )
        np_ = np.searchsorted(times, grid, side="right") - np.searchsorted(
            np.sort(ps.exit_times), grid, side="right"
        )
        assert np.all(nf <= np_)

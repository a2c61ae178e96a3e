"""Tests for the FIFO and PS server primitives, incl. Lemma 7."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.lindley import fifo_departure_times, unfinished_work
from repro.sim.servers import (
    _LOCKSTEP_MIN_ARCS,
    FifoServer,
    PSServer,
    ps_departure_times,
    ps_serve_segments,
)

sorted_times = (
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40)
    .map(sorted)
    .map(np.array)
)


class TestFifoServer:
    def test_matches_offline_lindley(self, rng):
        t = np.sort(rng.random(200) * 100)
        server = FifoServer()
        online = np.array([server.arrive(ti) for ti in t])
        np.testing.assert_allclose(online, fifo_departure_times(t))

    def test_rejects_decreasing_arrivals(self):
        server = FifoServer()
        server.arrive(5.0)
        with pytest.raises(ValueError):
            server.arrive(4.0)

    def test_rejects_bad_service(self):
        with pytest.raises(ValueError):
            FifoServer(service=-1.0)

    def test_busy_until(self):
        server = FifoServer()
        server.arrive(0.0)
        server.arrive(0.0)
        assert server.busy_until == pytest.approx(2.0)


class TestPSServer:
    def test_paper_example(self):
        """§3.3 worked example: arrivals at 0 and 1/2, unit work.

        First customer departs at 3/2, second at 2 (both slowed to
        rate 1/2 while sharing).
        """
        out = ps_departure_times(np.array([0.0, 0.5]))
        np.testing.assert_allclose(out, [1.5, 2.0])

    def test_lone_customer_unit_service(self):
        np.testing.assert_allclose(ps_departure_times(np.array([3.0])), [4.0])

    def test_simultaneous_pair_shares_equally(self):
        out = ps_departure_times(np.array([2.0, 2.0]))
        np.testing.assert_allclose(out, [4.0, 4.0])

    def test_three_way_sharing(self):
        # arrivals at 0, 0, 0: each served at 1/3 -> all depart at 3.
        out = ps_departure_times(np.zeros(3))
        np.testing.assert_allclose(out, [3.0, 3.0, 3.0])

    def test_departures_preserve_arrival_order(self, rng):
        t = np.sort(rng.random(100) * 30)
        out = ps_departure_times(t)
        assert np.all(np.diff(out) >= -1e-9)

    def test_empty(self):
        assert ps_departure_times(np.array([])).shape == (0,)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ps_departure_times(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_or_negative_arrivals(self, bad):
        """Regression: NaN slipped through the ``diff < 0`` sortedness
        check and gave ``[1, 3, 3]`` with no error."""
        with pytest.raises(ValueError):
            ps_departure_times(np.array([0.0, bad, 1.0]))
        with pytest.raises(ValueError):
            ps_departure_times(np.array([bad]))

    def test_rejects_bad_work(self):
        for work in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                ps_departure_times(np.array([0.0, 1.0]), work=work)

    def test_server_object_rejects_bad_work(self):
        srv = PSServer()
        with pytest.raises(ValueError):
            srv.arrive(0.0, work=0.0)

    def test_server_time_cannot_go_backwards(self):
        srv = PSServer()
        srv.arrive(5.0)
        with pytest.raises(ValueError):
            srv.advance(1.0)

    def test_pop_departure_empty(self):
        with pytest.raises(RuntimeError):
            PSServer().pop_departure()

    def test_next_departure_none_when_idle(self):
        assert PSServer().next_departure_time() is None


def _reference(t, work=1.0):
    """The per-object construction the kernel replaces: one
    :class:`PSServer` stepped one event at a time."""
    server = PSServer()
    out = np.empty(len(t))
    i, n = 0, len(t)
    while i < n or server.num_active:
        nxt = server.next_departure_time()
        if i < n and (nxt is None or t[i] < nxt):
            server.arrive(float(t[i]), customer_id=i, work=work)
            i += 1
        else:
            dep, cid = server.pop_departure()
            out[cid] = dep
    return out


def _layout(arcs):
    """Flat segment layout of per-arc arrival lists."""
    times = np.concatenate([np.asarray(a, dtype=float) for a in arcs])
    ends = np.cumsum([len(a) for a in arcs]).astype(np.int64)
    starts = np.r_[0, ends[:-1]].astype(np.int64)
    return times, starts, ends


def _kernel(arcs, works):
    """Every arc through one :func:`ps_serve_segments` call."""
    times, starts, ends = _layout(arcs)
    m = len(arcs)
    return ps_serve_segments(
        times, np.zeros(times.shape[0]), starts.copy(), starts, ends,
        np.zeros(m), np.zeros(m), np.asarray(works, dtype=float),
    )


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


#: arrival epochs on a coarse grid, so exact ties and arrivals landing
#: on departure epochs are common
#: enough arcs that the lockstep NumPy steps run before the scalar tail
LOCKSTEP = _LOCKSTEP_MIN_ARCS + 8


@st.composite
def many_arcs(draw, grid_only=False, long_arc=False):
    """Up to ``2 * LOCKSTEP`` arcs of up to 25 sorted arrivals each,
    from a drawn seed (cheap to generate at this size).  Half the arcs
    (all with *grid_only*) arrive on a quarter-unit grid, so exact ties
    and arrivals landing on departure epochs are common.  *long_arc*
    adds one 300-arrival arc, which the scalar tail picks up mid-run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arcs = []
    for _ in range(draw(st.integers(LOCKSTEP, 2 * LOCKSTEP))):
        n = int(rng.integers(1, 26))
        if grid_only or rng.random() < 0.5:
            arcs.append(np.sort(rng.integers(0, 41, n) / 4.0))
        else:
            arcs.append(np.sort(rng.random(n) * 30.0))
    if long_arc:
        long = np.sort(rng.integers(0, 801, 300) / 4.0)
        arcs.insert(int(rng.integers(len(arcs))), long)
    return arcs


class TestLockstepKernel:
    """:func:`ps_serve_segments` against the per-object server, bit
    for bit (``view(int64)``): departures must not move by one ulp."""

    @settings(max_examples=40, deadline=None)
    @given(arcs=many_arcs(long_arc=True))
    def test_many_short_arcs(self, arcs):
        """More live arcs than the scalar-tail threshold: the lockstep
        NumPy steps do most of the work, then the scalar tail resumes
        the long arc from the lockstep state."""
        want = np.concatenate([_reference(a) for a in arcs])
        assert _same_bits(_kernel(arcs, np.ones(len(arcs))), want)

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.lists(
            st.integers(min_value=0, max_value=400).map(lambda k: k / 8.0),
            min_size=1,
            max_size=300,
        ).map(sorted)
    )
    def test_one_long_arc(self, t):
        """A single arc runs entirely in the scalar tail."""
        assert _same_bits(ps_departure_times(np.array(t)), _reference(t))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=30))
    def test_arrivals_on_departure_epochs(self, data, n):
        """Arrivals placed exactly on the reference server's next
        departure epoch: the departure must go first."""
        server = PSServer()
        t = [0.0]
        server.arrive(0.0)
        for _ in range(n):
            nxt = server.next_departure_time()
            step = data.draw(st.sampled_from(["on", "same", "later"]))
            if step == "on" and nxt is not None:
                x = nxt
            elif step == "same":
                x = t[-1]
            else:
                x = t[-1] + data.draw(st.floats(min_value=0.0, max_value=2.0))
            while server.num_active and server.next_departure_time() <= x:
                server.pop_departure()
            server.arrive(x)
            t.append(x)
        want = _reference(t)
        assert _same_bits(ps_departure_times(np.array(t)), want)
        arcs = [t] * LOCKSTEP
        got = _kernel(arcs, np.ones(LOCKSTEP))
        assert _same_bits(got, np.tile(want, LOCKSTEP))

    @settings(max_examples=40, deadline=None)
    @given(arcs=many_arcs(), data=st.data())
    def test_per_arc_work(self, arcs, data):
        """Per-arc work, as :func:`simulate_markovian` passes it."""
        works = data.draw(
            st.lists(
                st.sampled_from([1.0, 0.5, 2.0, 0.3, 1.7]),
                min_size=len(arcs),
                max_size=len(arcs),
            )
        )
        want = np.concatenate([_reference(t, w) for t, w in zip(arcs, works)])
        assert _same_bits(_kernel(arcs, works), want)

    @settings(max_examples=25, deadline=None)
    @given(arcs=many_arcs(grid_only=True))
    def test_carry_split_at_every_watermark(self, arcs):
        """Stopping at a watermark and resuming from the carried state
        matches the one-shot run, at every arrival epoch."""
        times, starts, ends = _layout(arcs)
        m = len(arcs)
        one_shot = _kernel(arcs, np.ones(m))
        for wm in np.unique(times):
            thr = np.zeros(times.shape[0])
            head, S, now = starts.copy(), np.zeros(m), np.zeros(m)
            cut = starts + np.array(
                [np.searchsorted(a, wm, side="right") for a in arcs]
            )
            dep1 = ps_serve_segments(
                times, thr, head, starts, cut, S, now, np.ones(m), wm
            )
            held = head.copy()
            assert np.all(held <= cut)
            dep2 = ps_serve_segments(
                times, thr, head, cut, ends, S, now, np.ones(m)
            )
            assert np.array_equal(head, ends)
            rows = np.arange(times.shape[0])
            early = rows < np.repeat(held, ends - starts)
            got = np.where(early, dep1, dep2)
            assert _same_bits(got, one_shot), wm
            # nothing emitted early is past the watermark
            assert np.all(dep1[early] <= wm)

    def test_kernel_rejects_nan(self):
        t = np.array([0.0, np.nan])
        z = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            ps_serve_segments(
                t, np.zeros(2), z.copy(), z, np.array([2]),
                np.zeros(1), np.zeros(1), np.ones(1),
            )


class TestLemma7:
    """Lemma 7: FIFO departures never trail PS departures."""

    def test_example_from_proof(self):
        t = np.array([0.0, 0.5])
        d_fifo = fifo_departure_times(t)
        d_ps = ps_departure_times(t)
        assert np.all(d_fifo <= d_ps + 1e-12)
        # and the inequality is strict for the first customer here
        assert d_fifo[0] < d_ps[0]

    @settings(max_examples=200, deadline=None)
    @given(t=sorted_times)
    def test_property_fifo_dominates_ps(self, t):
        d_fifo = fifo_departure_times(t)
        d_ps = ps_departure_times(t)
        assert np.all(d_fifo <= d_ps + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(t=sorted_times)
    def test_property_work_conservation(self, t):
        """PS and FIFO finish the same total work by any time: the
        last departure coincides (both disciplines are work-conserving
        and non-idling)."""
        d_fifo = fifo_departure_times(t)
        d_ps = ps_departure_times(t)
        assert d_fifo[-1] == pytest.approx(d_ps[-1], abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(t=sorted_times, data=st.data())
    def test_property_ps_departure_after_remaining_work(self, t, data):
        """Eq. (12) of the proof: D~_i >= t_i + W(t_i-) + 1."""
        i = data.draw(st.integers(min_value=0, max_value=len(t) - 1))
        d_ps = ps_departure_times(t)
        w = unfinished_work(t, at=float(t[i]))
        assert d_ps[i] >= t[i] + w + 1.0 - 1e-6

"""Exact single-server building blocks: deterministic FIFO and PS.

The paper's proof machinery (Lemmas 7–10) compares, server by server,
the FIFO discipline against **Processor Sharing** with the same
deterministic work.  Both are implemented here exactly:

* :class:`FifoServer` — incremental Lindley recursion;
* :class:`PSServer` — egalitarian processor sharing tracked through the
  *fair-share integral* ``S(t) = ∫ 1/n(u) du``: a customer arriving at
  ``a`` with work ``w`` departs at the first ``t`` with
  ``S(t) = S(a) + w``.  This gives exact departure epochs in O(log n)
  per event with no per-customer bookkeeping on each update.  It is the
  reference the fast paths are tested against;
* :func:`ps_serve_segments` — the PS kernel of the levelled sweeps:
  many servers at once, one NumPy step per event, the same float
  operations as :class:`PSServer` in the same order (bit-identical),
  resumable from carried state.  :func:`ps_departure_times` is its
  one-server form;
* :class:`PsServerBank` — the same rules for the event engine, one
  server per arc, driven one event at a time by its calendar.

Ties: an arrival that coincides with a departure epoch is processed
*after* the departure (the departing customer's residual work hits zero
exactly then, and an instantaneous overlap renders zero service).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "FifoServer",
    "PSServer",
    "PsServerBank",
    "ps_departure_times",
    "ps_serve_segments",
]


class FifoServer:
    """Deterministic FIFO server with incremental arrivals.

    ``arrive(t)`` returns the departure time of that customer; arrivals
    must be fed in non-decreasing time order.
    """

    __slots__ = ("service", "_last_departure", "_last_arrival")

    def __init__(self, service: float = 1.0) -> None:
        if service <= 0.0:
            raise ValueError(f"service time must be > 0, got {service}")
        self.service = float(service)
        self._last_departure = -math.inf
        self._last_arrival = -math.inf

    def arrive(self, t: float) -> float:
        """Admit a customer at time *t*; return its departure time."""
        if t < self._last_arrival:
            raise ValueError(
                f"arrivals must be non-decreasing: {t} < {self._last_arrival}"
            )
        self._last_arrival = t
        start = self._last_departure if self._last_departure > t else t
        self._last_departure = start + self.service
        return self._last_departure

    @property
    def busy_until(self) -> float:
        """Time the server empties if no further arrivals occur."""
        return self._last_departure


class PSServer:
    """Deterministic egalitarian Processor-Sharing server.

    Maintains the fair-share integral ``S`` and a min-heap of departure
    thresholds ``S(a_i) + w_i``.  Events are driven externally:
    :meth:`next_departure_time` exposes the next epoch at which the
    minimum threshold is reached, and :meth:`advance` moves the clock.
    """

    __slots__ = ("_S", "_now", "_heap", "_seq")

    def __init__(self) -> None:
        self._S = 0.0
        self._now = 0.0
        self._heap: List[Tuple[float, int, int]] = []  # (threshold, seq, id)
        self._seq = 0

    @property
    def num_active(self) -> int:
        return len(self._heap)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, t: float) -> None:
        """Advance the clock to *t*, accruing fair share; no departures
        may be due strictly before *t* (caller drains them first)."""
        if t < self._now - 1e-12:
            raise ValueError(f"time moves backwards: {t} < {self._now}")
        n = len(self._heap)
        if n:
            self._S += (t - self._now) / n
        self._now = max(self._now, t)

    def arrive(self, t: float, customer_id: int = -1, work: float = 1.0) -> None:
        """Admit a customer with the given *work* at time *t*."""
        if work <= 0.0:
            raise ValueError(f"work must be > 0, got {work}")
        self.advance(t)
        heapq.heappush(self._heap, (self._S + work, self._seq, customer_id))
        self._seq += 1

    def next_departure_time(self) -> Optional[float]:
        """Epoch of the next departure if no more arrivals occur."""
        if not self._heap:
            return None
        threshold = self._heap[0][0]
        return self._now + (threshold - self._S) * len(self._heap)

    def pop_departure(self) -> Tuple[float, int]:
        """Advance to and remove the next departing customer.

        Returns ``(departure_time, customer_id)``.
        """
        t = self.next_departure_time()
        if t is None:
            raise RuntimeError("no active customers to depart")
        self.advance(t)
        threshold, _seq, cid = heapq.heappop(self._heap)
        # Snap the fair-share integral to the threshold to kill the
        # accumulated float drift for the remaining customers.
        self._S = threshold
        return t, cid


class PsServerBank:
    """A bank of PS servers in array-of-struct layout (one per arc).

    Same update rules as :class:`PSServer`, column-ised: per-arc
    fair-share integral ``S``, clock ``now`` and active count ``n``,
    plus an intrusive FIFO linked list of waiting customers (one
    ``next`` slot and one departure threshold per customer — a
    customer sits in at most one server).  The heap of ``(threshold,
    seq)`` pairs collapses to that queue because equal work makes
    thresholds non-decreasing in arrival order, with ties broken by
    insertion exactly as the heap's ``seq`` does.  No per-event
    allocation; every operation is the same float arithmetic as the
    per-object server (including the drift-killing snap of ``S`` to
    the departing threshold), so sample paths are bit-identical.
    """

    __slots__ = ("S", "now", "n", "head", "tail", "nxt", "thr")

    def __init__(self, num_servers: int, num_customers: int) -> None:
        self.S = [0.0] * num_servers
        self.now = [0.0] * num_servers
        self.n = [0] * num_servers
        self.head = [-1] * num_servers
        self.tail = [-1] * num_servers
        self.nxt = [-1] * num_customers
        self.thr = [0.0] * num_customers

    def advance(self, a: int, t: float) -> None:
        """Advance server *a*'s clock to *t*, accruing fair share."""
        now = self.now[a]
        if t < now - 1e-12:
            raise ValueError(f"time moves backwards: {t} < {now}")
        k = self.n[a]
        if k:
            self.S[a] += (t - now) / k
        if t > now:
            self.now[a] = t

    def arrive(self, a: int, t: float, customer: int, work: float) -> None:
        """Admit *customer* with the given *work* at server *a*."""
        self.advance(a, t)
        self.thr[customer] = self.S[a] + work
        if self.n[a]:
            self.nxt[self.tail[a]] = customer
        else:
            self.head[a] = customer
        self.tail[a] = customer
        self.n[a] += 1

    def next_departure(self, a: int) -> Optional[float]:
        """Epoch of server *a*'s next departure, or ``None`` if idle."""
        k = self.n[a]
        if not k:
            return None
        return self.now[a] + (self.thr[self.head[a]] - self.S[a]) * k

    def pop(self, a: int) -> Tuple[float, int]:
        """Advance to and remove server *a*'s next departing customer."""
        t = self.next_departure(a)
        if t is None:
            raise RuntimeError("no active customers to depart")
        self.advance(a, t)
        c = self.head[a]
        self.head[a] = self.nxt[c]
        self.n[a] -= 1
        # snap S to the threshold, as PSServer.pop_departure does
        self.S[a] = self.thr[c]
        return t, c


#: live-server count at or below which the lockstep sweep hands the
#: remaining servers to the scalar loop: a lockstep step is ~40 small
#: NumPy calls, which costs about as much as this many scalar events
_LOCKSTEP_MIN_ARCS = 64


def ps_serve_segments(
    times: np.ndarray,
    thr: np.ndarray,
    head: np.ndarray,
    first: np.ndarray,
    end: np.ndarray,
    S: np.ndarray,
    now: np.ndarray,
    work: np.ndarray,
    watermark: float = math.inf,
) -> np.ndarray:
    """Run many deterministic PS servers at once, one event per step.

    Rows are customers, grouped contiguously per server (*segment*) in
    arrival order.  Segment ``j`` owns rows ``head[j]:end[j]``: rows
    ``head[j]:first[j]`` are already in service with their departure
    thresholds in *thr*, and rows ``first[j]:end[j]`` arrive at
    ``times`` (ascending within the segment, all at or before the
    *watermark*).  ``S[j]`` and ``now[j]`` are the server's fair-share
    integral and clock, and every customer of segment ``j`` carries
    ``work[j]``.

    Every server advances through all its arrivals and every departure
    due at or before the *watermark*.  *thr* (rows ``first:end``, which
    must hold finite placeholders such as zeros on entry), *S*, *now*
    and *head* are updated in place, so ``head[j]:end[j]`` are
    the customers still in service afterwards and a later call
    continues the same sample path.  Returns the departure epoch of
    every row that departed; other rows are undefined.

    Equal work per customer makes thresholds non-decreasing in arrival
    order, so each server's heap collapses to the FIFO run of its rows
    and its state to ``(S, now, head)``.  Each step advances every live
    server by one event with :class:`PSServer`'s float operations in
    its order (an arrival goes first only if strictly earlier than the
    next departure; a departure snaps ``S`` to its threshold), so
    departures are bit-identical to the per-object server.  Once at
    most ``_LOCKSTEP_MIN_ARCS`` servers are live, a scalar loop
    finishes them from the same state.
    """
    n_rows = times.shape[0]
    dep = np.empty(n_rows)
    if n_rows and not ((times >= 0.0).all() and times.max() < math.inf):
        raise ValueError("arrival epochs must be finite and >= 0")
    live = np.flatnonzero(end > head)
    h, i, e = head[live], first[live], end[live]
    s, c, w = S[live], now[live], work[live]
    while live.shape[0] > _LOCKSTEP_MIN_ARCS:
        k = i - h
        ti = times.take(i, mode="clip")
        th = thr.take(h, mode="clip")
        nxt = c + (th - s) * k
        arrive = (i < e) & ((k == 0) | (ti < nxt))
        depart = ~arrive & (k > 0) & (nxt <= watermark)
        step = arrive | depart
        if not step.all():
            idle = ~step
            head[live[idle]] = h[idle]
            S[live[idle]] = s[idle]
            now[live[idle]] = c[idle]
            live = live[step]
            h, i, e, s, c, w = h[step], i[step], e[step], s[step], c[step], w[step]
            if live.shape[0] <= _LOCKSTEP_MIN_ARCS:
                break
            k, ti, th, nxt = k[step], ti[step], th[step], nxt[step]
            arrive, depart = arrive[step], depart[step]
        s_in = np.where(k > 0, s + (ti - c) / np.maximum(k, 1), s)
        thr[i[arrive]] = s_in[arrive] + w[arrive]
        dep[h[depart]] = nxt[depart]
        t_ev = np.where(arrive, ti, nxt)
        s = np.where(arrive, s_in, th)
        c = np.where(t_ev > c, t_ev, c)
        i = i + arrive
        h = h + depart
    for j in range(live.shape[0]):
        a = live[j]
        head[a], S[a], now[a] = _ps_scalar(
            times, thr, dep, int(h[j]), int(i[j]), int(e[j]),
            float(s[j]), float(c[j]), float(w[j]), watermark,
        )
    return dep


def _ps_scalar(
    times: np.ndarray,
    thr: np.ndarray,
    dep: np.ndarray,
    h: int,
    i: int,
    e: int,
    s: float,
    c: float,
    w: float,
    watermark: float,
) -> Tuple[int, float, float]:
    """One segment of :func:`ps_serve_segments`, one event at a time:
    the same float operations on Python floats.  Returns the segment's
    final ``(head, S, now)``."""
    off = i - h
    arrivals = times[i:e].tolist()
    q = thr[h:e].tolist()
    out: List[float] = []
    hq, iq, m = 0, off, e - h
    while True:
        k = iq - hq
        nxt = c + (q[hq] - s) * k if k else math.inf
        if iq < m and (not k or arrivals[iq - off] < nxt):
            t = arrivals[iq - off]
            if k:
                s += (t - c) / k
            if t > c:
                c = t
            q[iq] = s + w
            iq += 1
        elif k and nxt <= watermark:
            out.append(nxt)
            s = q[hq]
            if nxt > c:
                c = nxt
            hq += 1
        else:
            break
    dep[h : h + hq] = out
    thr[h:e] = q
    return h + hq, s, c


def ps_departure_times(
    arrivals: np.ndarray, work: float = 1.0
) -> np.ndarray:
    """Offline departure times of a deterministic PS server.

    *arrivals* must be finite, non-negative and sorted ascending; all
    customers carry the same *work* (the paper's unit packets), so
    departures preserve arrival order and ``out[i]`` is the departure
    of arrival ``i``.  One segment of :func:`ps_serve_segments`.

    Lemma 7 guarantees ``fifo_departure_times(a) <= ps_departure_times(a)``
    elementwise — property-tested in the suite.
    """
    t = np.asarray(arrivals, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"arrivals must be 1-D, got shape {t.shape}")
    if not work > 0.0:
        raise ValueError(f"work must be > 0, got {work}")
    n = t.shape[0]
    if n and np.any(np.diff(t) < 0):
        raise ValueError("arrivals must be sorted ascending")
    zero = np.zeros(1, dtype=np.int64)
    return ps_serve_segments(
        t, np.zeros(n), zero, zero.copy(), np.array([n]),
        np.zeros(1), np.zeros(1), np.array([float(work)]),
    )

"""Vectorised simulation of levelled networks (the HPC fast path).

The equivalent networks Q (hypercube, §3.1) and R (butterfly, §4.3) are
*levelled*: a packet leaving a level-``l`` server only ever joins a
server at a level ``> l`` (Property B).  Consequently the whole sample
path can be computed **level by level with no event calendar**: once
levels ``0..l-1`` are solved, the complete arrival stream of every
level-``l`` server is known, and each server is solved in one shot —
FIFO by the closed-form Lindley recursion
(:func:`repro.sim.lindley.fifo_departure_times`), PS by the exact
fair-share construction, every server of a level at once
(:func:`repro.sim.servers.ps_serve_segments`).  :func:`serve_level` is
the one entry point every levelled sweep, the fixed-point solver and
the Markovian network mode share.

Two front ends:

* :func:`simulate_hypercube_greedy` / :func:`simulate_butterfly_greedy`
  — *packet mode*: route actual packets of a
  :class:`~repro.traffic.workload.TrafficSample` along their canonical
  paths (the physical system of the paper), with an optional per-hop
  arc log; their ``*_chunked`` twins stream the same sweep in
  birth-ordered chunks with per-arc state carried between them,
  bit-identical and bounded in memory by the topology;
* :func:`simulate_markovian` — *network mode*: simulate a levelled
  network spec with Markovian routing decisions (networks Q/R and the
  Fig. 2 example), with optional **decision coupling** for the
  Lemma 9/10 sample-path comparisons.

FIFO ties are broken by packet id (birth order) — the deterministic
stand-in for the paper's "first arrived at the node" rule — and the
event-driven engine uses the same rule, so both engines produce the
same sample path (cross-validated in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.rng import SeedLike, as_generator
from repro.sim.measurement import DelayRecord
from repro.sim.servers import ps_serve_segments
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.traffic.workload import TrafficSample

__all__ = [
    "ArcLog",
    "FeedForwardResult",
    "MarkovianResult",
    "serve_level",
    "simulate_hypercube_greedy",
    "simulate_butterfly_greedy",
    "simulate_hypercube_greedy_chunked",
    "simulate_butterfly_greedy_chunked",
    "simulate_markovian",
    "LevelledSpec",
]

#: routing decision code for "leave the network"
EXIT = -1


@dataclass(frozen=True)
class ArcLog:
    """Flat per-hop trace: packet ``pid`` held arc ``arc`` during
    ``[t_in, t_out)`` of queueing+service."""

    pid: np.ndarray
    arc: np.ndarray
    t_in: np.ndarray
    t_out: np.ndarray

    @property
    def num_hops(self) -> int:
        return int(self.pid.shape[0])

    def for_arc(self, arc_id: int) -> "ArcLog":
        """Sub-log of a single arc, in service (departure) order."""
        m = self.arc == arc_id
        order = np.lexsort((self.pid[m], self.t_in[m]))
        return ArcLog(
            self.pid[m][order],
            self.arc[m][order],
            self.t_in[m][order],
            self.t_out[m][order],
        )


@dataclass(frozen=True)
class FeedForwardResult:
    """Outcome of a packet-mode run."""

    delivery: np.ndarray
    hops: np.ndarray
    arc_log: Optional[ArcLog]
    sample: TrafficSample

    def delay_record(self) -> DelayRecord:
        return DelayRecord(self.sample.times, self.delivery, self.sample.horizon)

    def delays(self) -> np.ndarray:
        return self.delivery - self.sample.times


@dataclass(frozen=True)
class MarkovianResult:
    """Outcome of a network-mode (Markovian routing) run."""

    #: exit time of each external customer (indexed like the inputs)
    exit_times: np.ndarray
    #: number of servers visited per customer
    hops: np.ndarray
    arc_log: Optional[ArcLog]
    #: per-arc routing decision sequences actually used (for coupling)
    decisions: Optional[Dict[int, np.ndarray]]


def _segmented_running_max(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per-segment prefix maximum of *values*, in place (Hillis–Steele
    doubling); returns *values*.

    ``pos`` gives each element's 0-based index within its (contiguous)
    segment.  Equivalent to ``np.maximum.accumulate`` applied segment
    by segment — bit-identical, since ``max`` selects one of its
    operands — but with O(log max-segment-length) vectorised rounds
    instead of a Python loop over segments.
    """
    max_pos = int(pos.max()) if pos.shape[0] else 0
    shift = 1
    while shift <= max_pos:
        # element i's in-segment predecessor at distance `shift` is
        # i - shift iff pos[i] >= shift (segments are contiguous);
        # np.where materialises last round's values before the write
        candidate = np.where(pos[shift:] >= shift, values[:-shift], -np.inf)
        np.maximum(values[shift:], candidate, out=values[shift:])
        shift <<= 1
    return values


class _ArcCarry:
    """Dense per-arc FIFO Lindley state carried across horizon chunks.

    ``counts[a]`` is how many arrivals arc *a* has served so far and
    ``run[a]`` the running maximum of ``t_j - s*j`` over them — the
    prefix state of :func:`serve_level`'s closed form.  Memory is
    O(num_arcs): topology-bounded, independent of the horizon.
    """

    __slots__ = ("counts", "run")

    def __init__(self, num_arcs: int) -> None:
        self.counts = np.zeros(num_arcs, dtype=np.int64)
        self.run = np.full(num_arcs, -np.inf)


def _arc_time_pid_order(
    arcs: np.ndarray, times: np.ndarray, pids: np.ndarray
) -> np.ndarray:
    """Permutation putting rows in (arc, time, pid) service order.

    Within one serve call the pids are distinct, so that order is a
    *unique* permutation — any algorithm producing it matches
    ``np.lexsort((pids, times, arcs))`` exactly.  This one needs two
    plain argsorts instead of three stable passes: rank the arrival
    epochs densely (equal floats share a rank, so exact time ties
    still fall through to the pid), then argsort a single packed
    ``(arc, rank, pid)`` int64 key.  Plain argsorts may be unstable,
    which is safe here precisely because ranks collapse equal times
    and the packed keys are unique — and they hit NumPy's vectorised
    quicksort, which the stable kinds cannot use.

    Falls back to ``np.lexsort`` when any time is negative (the int64
    view of an IEEE double is order-preserving only for non-negative
    values, ``-0.0`` included in the guard since its sign bit is set),
    or when an id is negative or the packed key would overflow 63 bits.
    """
    n = arcs.shape[0]
    t = times if times.flags.c_contiguous else np.ascontiguousarray(times)
    o_t = np.argsort(t.view(np.int64))
    t_s = t.view(np.int64)[o_t]
    if t_s[0] < 0 or int(arcs.min()) < 0 or int(pids.min()) < 0:
        return np.lexsort((pids, times, arcs))
    r_sorted = np.empty(n, dtype=np.int64)
    r_sorted[0] = 0
    np.cumsum(t_s[1:] != t_s[:-1], out=r_sorted[1:])
    bits_p = int(pids.max()).bit_length()
    bits_r = int(r_sorted[-1]).bit_length()
    bits_a = int(arcs.max()).bit_length()
    if bits_a + bits_r + bits_p > 63:
        return np.lexsort((pids, times, arcs))
    rank = np.empty(n, dtype=np.int64)
    rank[o_t] = r_sorted
    key = (arcs << np.int64(bits_r + bits_p)) | (rank << np.int64(bits_p))
    key |= pids
    return np.argsort(key)


def serve_level(
    arcs: np.ndarray,
    times: np.ndarray,
    pids: np.ndarray,
    discipline: str = "fifo",
    service: float | np.ndarray = 1.0,
    *,
    carry: Optional[_ArcCarry] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve every server of one level in one shot.

    Parameters are parallel arrays (one entry per packet crossing the
    level): global arc id, arrival epoch at the arc, packet id for tie
    breaking.  ``service`` is the deterministic service duration —
    either a scalar (the paper's unit packets) or an array indexed by
    *global arc id* (the heterogeneous-server generality noted after
    Prop 11).  Returns ``(departures, order)`` where ``departures`` is
    aligned with the inputs and ``order`` is the service permutation
    (packets in (arc, time, pid) order, :func:`_arc_time_pid_order`)
    used for routing-decision positions.

    FIFO is solved for **all** arcs in one segmented Lindley recursion
    (``D_i = s*(i+1) + max_{j<=i}(t_j - s*j)`` per arc, the closed form
    of :func:`repro.sim.lindley.fifo_departure_times`, with the running
    maximum computed by :func:`_segmented_running_max`) — no Python
    loop over arcs.  With a *carry* the rows are one chunk's share of
    the level: each arc's rows take global positions
    ``carry.counts[a]...``, the carried running maximum is folded into
    each segment's head before the prefix scan, and the carry advances
    in place.  Chunks split an arc's arrival sequence at a boundary
    that respects the (time, pid) service order, and ``max`` selects
    one of its operands exactly, so a carried run reproduces the
    one-shot departures bit for bit.  PS runs every arc at once through
    the lockstep fair-share kernel
    :func:`repro.sim.servers.ps_serve_segments`: one NumPy step per
    event of the busiest arcs, then a scalar loop for the last few,
    bit-identical to a per-arc :class:`~repro.sim.servers.PSServer`
    replay (its chunk carry is :class:`_PsCarry`).

    ``service`` must be finite and > 0 (every entry of a per-arc
    array) and arrival epochs finite, each checked once per call.
    FIFO accepts negative epochs; PS rejects them.
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    if carry is not None and discipline != "fifo":
        raise ConfigurationError("a FIFO carry cannot seed a PS level")
    per_arc = isinstance(service, np.ndarray)
    if per_arc:
        if not (np.all(service > 0.0) and np.all(np.isfinite(service))):
            raise ValueError("per-arc service times must be finite and > 0")
    elif not 0.0 < service < np.inf:
        raise ValueError(f"service time must be finite and > 0, got {service}")
    n = arcs.shape[0]
    dep = np.empty(n)
    if n == 0:
        return dep, np.zeros(0, dtype=np.int64)
    if not np.isfinite(times).all():
        raise ValueError("arrival epochs must be finite")
    order = _arc_time_pid_order(arcs, times, pids)
    a_s = arcs[order]
    t_s = times[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(a_s[1:], a_s[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.empty(starts.shape[0], dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = n - starts[-1]
    uniq = a_s[starts]
    if discipline == "ps":
        m = starts.shape[0]
        work = service[uniq] if per_arc else np.full(m, float(service))
        dep[order] = ps_serve_segments(
            t_s, np.zeros(n), starts.copy(), starts, starts + counts,
            np.zeros(m), np.zeros(m), work,
        )
        return dep, order
    s = service[a_s] if per_arc else float(service)
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    if carry is None:
        idx = pos.astype(float)
    else:
        base = carry.counts[uniq]
        idx = (pos + np.repeat(base, counts)).astype(float)
    vals = t_s - s * idx
    if carry is not None:
        vals[starts] = np.maximum(vals[starts], carry.run[uniq])
    run = _segmented_running_max(vals, pos)
    dep[order] = s * (idx + 1.0) + run
    if carry is not None:
        carry.counts[uniq] = base + counts
        carry.run[uniq] = run[starts + counts - 1]
    return dep, order


# ---------------------------------------------------------------------------
# packet mode
# ---------------------------------------------------------------------------


def simulate_hypercube_greedy(
    cube: Hypercube,
    sample: TrafficSample,
    *,
    dim_order: Optional[Sequence[int]] = None,
    discipline: str = "fifo",
    record_arc_log: bool = False,
) -> FeedForwardResult:
    """Route a traffic sample through the d-cube under greedy routing.

    ``dim_order`` is the *global* dimension crossing order shared by all
    packets (default: increasing — the paper's canonical scheme; any
    fixed permutation keeps the network levelled, enabling the E13
    ablation).  ``discipline="ps"`` replaces every arc's FIFO server
    with Processor Sharing (the network Q̃ of §3.3, but fed by physical
    packet paths).
    """
    d, n_nodes = cube.d, cube.num_nodes
    if dim_order is None:
        dim_order = range(d)
    else:
        if sorted(dim_order) != list(range(d)):
            raise ConfigurationError(
                f"dim_order must be a permutation of range({d}), got {dim_order!r}"
            )
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    n = origins.shape[0]
    diff = origins ^ dests
    x = origins.copy()
    cur = np.asarray(sample.times, dtype=float).copy()
    pids = np.arange(n, dtype=np.int64)
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for dim in dim_order:
        m = ((diff >> dim) & 1).astype(bool)
        if not m.any():
            continue
        tails = x[m]
        arc_ids = dim * n_nodes + tails
        t_in = cur[m]
        dep, _ = serve_level(arc_ids, t_in, pids[m], discipline)
        if record_arc_log:
            logs.append((pids[m], arc_ids, t_in, dep))
        cur[m] = dep
        x[m] = tails ^ (1 << dim)
    if np.any(x != dests):  # pragma: no cover - internal invariant
        raise SimulationError("packets did not reach their destinations")
    hops = np.bitwise_count(diff).astype(np.int64)
    arc_log = _merge_logs(logs) if record_arc_log else None
    return FeedForwardResult(cur, hops, arc_log, sample)


def simulate_butterfly_greedy(
    bf: Butterfly,
    sample: TrafficSample,
    *,
    discipline: str = "fifo",
    record_arc_log: bool = False,
) -> FeedForwardResult:
    """Route a traffic sample through the butterfly (unique paths, §4).

    Origins/destinations of the sample are row addresses; every packet
    crosses exactly one arc per level (d hops total).
    """
    d, rows_per_level = bf.d, bf.rows
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    n = origins.shape[0]
    diff = origins ^ dests
    rows = origins.copy()
    cur = np.asarray(sample.times, dtype=float).copy()
    pids = np.arange(n, dtype=np.int64)
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for level in range(d):
        kind = (diff >> level) & 1
        arc_ids = level * 2 * rows_per_level + 2 * rows + kind
        dep, _ = serve_level(arc_ids, cur, pids, discipline)
        if record_arc_log:
            logs.append((pids.copy(), arc_ids, cur.copy(), dep))
        cur = dep
        rows = rows ^ (kind << level)
    if n and np.any(rows != dests):  # pragma: no cover - internal invariant
        raise SimulationError("packets did not reach their destination rows")
    hops = np.full(n, d, dtype=np.int64)
    arc_log = _merge_logs(logs) if record_arc_log else None
    return FeedForwardResult(cur, hops, arc_log, sample)


# ---------------------------------------------------------------------------
# chunked-horizon packet mode (streaming, bounded memory)
# ---------------------------------------------------------------------------
#
# The one-shot sweeps materialise every packet's every hop at once, so
# peak memory grows linearly with the horizon.  The chunked mode — the
# route every hypercube and butterfly replication takes, in chunks of
# STREAM_CHUNK packets — processes packets in birth-order chunks
# instead: a chunk's watermark
# is its last birth epoch, rows whose arrival at a level exceeds the
# watermark are parked for a later chunk, and each arc carries its
# queue state between chunks.  Because every future packet is born at
# or after the watermark (birth times are sorted), each arc's arrival
# stream up to the watermark is complete by the time its level is
# served, so the carried state continues the one-shot construction
# exactly.  Peak memory is O(chunk + in-flight rows + num_arcs) —
# bounded by the chunk size and the topology, independent of the
# horizon.
#
# FIFO carries the Lindley prefix state (arrival count + running max)
# per arc in an :class:`_ArcCarry` that seeds :func:`serve_level`,
# dense: the whole queue ahead of every arrival is determined
# at admission, so departures are emitted immediately — even past the
# watermark — and because ``max`` selects one of its operands exactly,
# the carried closed form reproduces every departure **bit for bit**
# (validated against the one-shot path in the tests).
#
# PS departures depend on arrivals beyond the chunk, so the carry is
# each arc's fair-share server state instead: dense per-arc integral
# ``S`` and clock, plus the flat rows of customers still in service
# (their fair-share departure thresholds).  Departures are emitted only
# once the watermark passes them (no later arrival can change them:
# ties at a departure epoch are processed after the departure), and
# the final chunk's infinite watermark closes every busy period.  The
# one-shot sweep and the carry both run
# :func:`~repro.sim.servers.ps_serve_segments`, the carry continuing
# from the carried state, so the sample path matches the one-shot
# sweep bit for bit as well (tested; the engine contract is 1e-9).
#
# To keep the per-chunk bookkeeping O(d) instead of O(d^2), rows carry
# their *level-space* crossing mask (bit ``di`` set iff position ``di``
# of the global crossing order is still to be crossed): the entry
# level and each next level are then count-trailing-zeros bit algebra
# instead of a scan over the remaining dimensions.


#: packets per chunk of the streamed sweeps: large enough that the
#: per-level Python overhead amortises, small enough that a chunk's
#: working set stays a few MB whatever the horizon
STREAM_CHUNK = 32768


class _PsCarry:
    """Dense per-arc PS state carried across horizon chunks.

    ``S[a]`` and ``now[a]`` are arc *a*'s fair-share integral and clock
    — kept while the arc idles, since they are part of the one-shot
    arithmetic.  ``rows[level]`` holds that level's customers still in
    service, flat and in service order: ``(arcs, pids, arrival epochs,
    departure thresholds)``, or ``None`` when the level is idle.
    Memory is O(num_arcs + in-service customers): topology-bounded.
    """

    __slots__ = ("S", "now", "rows")

    def __init__(self, num_arcs: int, num_levels: int) -> None:
        self.S = np.zeros(num_arcs)
        self.now = np.zeros(num_arcs)
        self.rows: List[Optional[Tuple[np.ndarray, ...]]] = [None] * num_levels

    def busy(self, level: int) -> bool:
        return self.rows[level] is not None

    def serve(
        self,
        level: int,
        arcs: np.ndarray,
        times: np.ndarray,
        pids: np.ndarray,
        watermark: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Feed one chunk's share of a level's PS arrivals and return
        every departure due by the *watermark* as ``(pids, epochs)``.

        The carried customers go ahead of the chunk's arrivals on each
        arc and :func:`~repro.sim.servers.ps_serve_segments` continues
        from the carried state, so the event order is the one-shot
        sweep's.  Later arrivals are all past the watermark and a tie
        with a departure epoch goes to the departure, so the emitted
        epochs are final; customers still in service stay carried.
        """
        if arcs.shape[0]:
            order = _arc_time_pid_order(arcs, times, pids)
            arcs, times, pids = arcs[order], times[order], pids[order]
        thr = np.zeros(arcs.shape[0])
        held = self.rows[level]
        if held is not None:
            # both runs are sorted by arc: a stable merge keeps the
            # carried customers ahead of the new arrivals on each arc
            merge = np.argsort(np.concatenate([held[0], arcs]), kind="stable")
            carried = merge < held[0].shape[0]
            arcs, pids, times, thr = (
                np.concatenate([c, x])[merge]
                for c, x in zip(held, (arcs, pids, times, thr))
            )
        n = arcs.shape[0]
        if n == 0:
            return pids, times
        starts = np.flatnonzero(np.r_[True, arcs[1:] != arcs[:-1]])
        counts = np.diff(np.r_[starts, n])
        first = starts
        if held is not None:
            first = starts + np.add.reduceat(carried.astype(np.int64), starts)
        uniq = arcs[starts]
        S, now = self.S[uniq], self.now[uniq]
        head = starts.copy()
        dep = ps_serve_segments(
            times, thr, head, first, starts + counts, S, now,
            np.ones(uniq.shape[0]), watermark,
        )
        self.S[uniq] = S
        self.now[uniq] = now
        gone = np.arange(n) < np.repeat(head, counts)
        stay = ~gone
        self.rows[level] = (
            (arcs[stay], pids[stay], times[stay], thr[stay])
            if stay.any()
            else None
        )
        return pids[gone], dep[gone]


def _require_chunkable(discipline: str, chunk_packets: int) -> int:
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    chunk = int(chunk_packets)
    if chunk < 1:
        raise ConfigurationError(
            f"chunk_packets must be >= 1, got {chunk_packets!r}"
        )
    return chunk


def _level_space_diff(
    diff_vals: np.ndarray, dim_order: Optional[Tuple[int, ...]]
) -> np.ndarray:
    """Remap dim-space XOR masks into *level space*: bit ``di`` of the
    result is bit ``dim_order[di]`` of the input (identity order passes
    through).  In level space "next level to cross" is count-trailing-
    zeros, which keeps the chunk bookkeeping O(d) per packet."""
    if dim_order is None:
        return diff_vals
    out = np.zeros_like(diff_vals)
    for di, dim in enumerate(dim_order):
        out |= ((diff_vals >> np.int64(dim)) & 1) << np.int64(di)
    return out


def _ctz(values: np.ndarray) -> np.ndarray:
    """Count trailing zeros of strictly positive int64 values, as
    uint8 (level keys that small take NumPy's radix sort)."""
    return np.bitwise_count((values & -values) - 1)


def _bucket_by_level(
    level_in: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
    levels: np.ndarray,
    lo_level: int,
    pids: np.ndarray,
    times: np.ndarray,
    ldiff: np.ndarray,
) -> None:
    """Append ``(pids, times, ldiff)`` rows to their per-level input
    buckets in one stable sort + split (no per-dimension scan)."""
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels - lo_level)
    bounds = np.r_[0, np.cumsum(counts)]
    p_s, t_s, l_s = pids[order], times[order], ldiff[order]
    for k in np.flatnonzero(counts):
        lo, hi = bounds[k], bounds[k + 1]
        level_in[lo_level + k].append((p_s[lo:hi], t_s[lo:hi], l_s[lo:hi]))


def simulate_hypercube_greedy_chunked(
    cube: Hypercube,
    sample: TrafficSample,
    *,
    chunk_packets: int = STREAM_CHUNK,
    dim_order: Optional[Sequence[int]] = None,
    discipline: str = "fifo",
) -> np.ndarray:
    """Delivery epochs of :func:`simulate_hypercube_greedy`, computed
    in birth-ordered chunks of at most ``chunk_packets`` packets (the
    route the hypercube network plugin streams every replication
    through, at :data:`STREAM_CHUNK`).

    Matches the one-shot sweep bit for bit — FIFO via the dense
    Lindley prefix carry, PS by continuing the fair-share kernel from
    carried per-arc server state — with peak memory bounded
    by the chunk size and the topology instead of the horizon.
    """
    chunk = _require_chunkable(discipline, chunk_packets)
    d, n_nodes = cube.d, cube.num_nodes
    if dim_order is None:
        order_map: Optional[Tuple[int, ...]] = None
    elif sorted(dim_order) != list(range(d)):
        raise ConfigurationError(
            f"dim_order must be a permutation of range({d}), got {dim_order!r}"
        )
    else:
        dim_order = tuple(int(x) for x in dim_order)
        order_map = None if dim_order == tuple(range(d)) else dim_order
    dims = tuple(range(d)) if order_map is None else order_map
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    times = np.asarray(sample.times, dtype=float)
    n = origins.shape[0]
    diff = origins ^ dests
    delivery = times.copy()  # zero-hop packets are delivered at birth
    if n == 0 or not diff.any():
        return delivery
    #: bits (dim space) crossed before position di of the global order
    cum_mask = [np.int64(0)] * (d + 1)
    for di, dim in enumerate(dims):
        cum_mask[di + 1] = np.int64(int(cum_mask[di]) | (1 << dim))
    fifo = discipline == "fifo"
    carry = _ArcCarry(cube.num_arcs) if fifo else None
    ps_carry = None if fifo else _PsCarry(cube.num_arcs, d)
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0)
    #: per level: rows parked by an earlier chunk because their arrival
    #: epoch exceeded its watermark — (pids, arrivals, level diffs)
    parked: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
        [] for _ in range(d)
    ]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        watermark = np.inf if hi >= n else float(times[hi - 1])
        level_in, parked = parked, [[] for _ in range(d)]
        routed = np.flatnonzero(diff[lo:hi])
        if routed.size:
            fresh = routed + lo
            ld = _level_space_diff(diff[fresh], order_map)
            # a packet enters at the first position it must cross
            _bucket_by_level(level_in, _ctz(ld), 0, fresh, times[fresh], ld)
        for di in range(d):
            if level_in[di]:
                pids_l = np.concatenate([c[0] for c in level_in[di]])
                t_l = np.concatenate([c[1] for c in level_in[di]])
                ld_l = np.concatenate([c[2] for c in level_in[di]])
                ready = t_l <= watermark
                if not ready.all():
                    wait = ~ready
                    parked[di].append((pids_l[wait], t_l[wait], ld_l[wait]))
                    pids_l = pids_l[ready]
                    t_l = t_l[ready]
                    ld_l = ld_l[ready]
            elif fifo or not ps_carry.busy(di):
                continue
            else:
                pids_l, t_l, ld_l = empty_i, empty_f, empty_i
            if fifo and pids_l.size == 0:
                continue
            already = diff[pids_l] & cum_mask[di]
            arc_ids = np.int64(dims[di]) * n_nodes + (origins[pids_l] ^ already)
            if fifo:
                out_pids = pids_l
                out_dep, _ = serve_level(arc_ids, t_l, pids_l, carry=carry)
                out_ld = ld_l
            else:
                # a busy arc drains up to the watermark even when this
                # chunk brings it no new arrivals
                out_pids, out_dep = ps_carry.serve(
                    di, arc_ids, t_l, pids_l, watermark
                )
                if out_pids.size == 0:
                    continue
                out_ld = _level_space_diff(diff[out_pids], order_map)
            rem = out_ld >> np.int64(di + 1)
            done = rem == 0
            delivery[out_pids[done]] = out_dep[done]
            cont = np.flatnonzero(~done)
            if cont.size == 0:
                continue
            nxt = di + 1 + _ctz(rem[cont])
            _bucket_by_level(
                level_in, nxt, di + 1,
                out_pids[cont], out_dep[cont], out_ld[cont],
            )
    return delivery


def simulate_butterfly_greedy_chunked(
    bf: Butterfly,
    sample: TrafficSample,
    *,
    chunk_packets: int = STREAM_CHUNK,
    discipline: str = "fifo",
) -> np.ndarray:
    """Delivery epochs of :func:`simulate_butterfly_greedy`, computed
    in birth-ordered chunks (the butterfly analogue of
    :func:`simulate_hypercube_greedy_chunked`)."""
    chunk = _require_chunkable(discipline, chunk_packets)
    d, rows_per_level = bf.d, bf.rows
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    times = np.asarray(sample.times, dtype=float)
    n = origins.shape[0]
    diff = origins ^ dests
    delivery = times.copy()
    if n == 0 or d == 0:
        return delivery
    fifo = discipline == "fifo"
    carry = _ArcCarry(bf.num_arcs) if fifo else None
    ps_carry = None if fifo else _PsCarry(bf.num_arcs, d)
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0)
    parked: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(d)]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        watermark = np.inf if hi >= n else float(times[hi - 1])
        level_in, parked = parked, [[] for _ in range(d)]
        fresh = np.arange(lo, hi, dtype=np.int64)
        level_in[0].append((fresh, times[lo:hi]))
        for level in range(d):
            if level_in[level]:
                pids_l = np.concatenate([c[0] for c in level_in[level]])
                t_l = np.concatenate([c[1] for c in level_in[level]])
                ready = t_l <= watermark
                if not ready.all():
                    wait = ~ready
                    parked[level].append((pids_l[wait], t_l[wait]))
                    pids_l = pids_l[ready]
                    t_l = t_l[ready]
            elif fifo or not ps_carry.busy(level):
                continue
            else:
                pids_l, t_l = empty_i, empty_f
            if fifo and pids_l.size == 0:
                continue
            pdiff = diff[pids_l]
            # row address entering `level`: bits below it already applied
            rows_addr = origins[pids_l] ^ (pdiff & np.int64((1 << level) - 1))
            kind = (pdiff >> np.int64(level)) & 1
            arc_ids = level * 2 * rows_per_level + 2 * rows_addr + kind
            if fifo:
                out_pids = pids_l
                out_dep, _ = serve_level(arc_ids, t_l, pids_l, carry=carry)
            else:
                out_pids, out_dep = ps_carry.serve(
                    level, arc_ids, t_l, pids_l, watermark
                )
                if out_pids.size == 0:
                    continue
            if level + 1 == d:
                delivery[out_pids] = out_dep
            else:
                level_in[level + 1].append((out_pids, out_dep))
    return delivery


def _merge_logs(
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> ArcLog:
    if not logs:
        empty_i = np.zeros(0, dtype=np.int64)
        return ArcLog(empty_i, empty_i.copy(), np.zeros(0), np.zeros(0))
    return ArcLog(
        np.concatenate([l[0] for l in logs]),
        np.concatenate([l[1] for l in logs]),
        np.concatenate([l[2] for l in logs]),
        np.concatenate([l[3] for l in logs]),
    )


# ---------------------------------------------------------------------------
# network (Markovian routing) mode
# ---------------------------------------------------------------------------


class LevelledSpec:
    """Interface for levelled networks with Markovian routing.

    Concrete specs (network Q, network R, the Fig. 2 example) provide
    the level structure and per-arc routing decision sampling; see
    :mod:`repro.core.qnetwork`.
    """

    num_arcs: int
    num_levels: int

    def arc_level(self, arc_id: int) -> int:
        raise NotImplementedError

    def draw_decisions(
        self, arc_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample *count* routing decisions for this arc.

        Each entry is the next arc id (strictly higher level) or
        :data:`EXIT`.
        """
        raise NotImplementedError


def simulate_markovian(
    spec: LevelledSpec,
    ext_times: np.ndarray,
    ext_arcs: np.ndarray,
    *,
    discipline: str = "fifo",
    rng: SeedLike = None,
    decisions: Optional[Dict[int, np.ndarray]] = None,
    record_decisions: bool = False,
    record_arc_log: bool = False,
    service_times: Optional[np.ndarray] = None,
) -> MarkovianResult:
    """Simulate a levelled network under Markovian routing.

    ``ext_times``/``ext_arcs`` give the external arrival epoch and entry
    arc of each customer.  If *decisions* is supplied, the k-th customer
    served by each arc takes that arc's k-th recorded decision — the
    exact coupling used by Lemmas 9/10 to compare FIFO and PS networks
    on one sample path.  Otherwise decisions are drawn from per-arc
    spawned RNG streams (and returned when *record_decisions*), so a
    FIFO run and a PS run with the same seed are automatically coupled.

    ``service_times`` optionally gives each arc its own deterministic
    service duration (shape ``(num_arcs,)``) — the "possibly with
    different service times" generality the paper notes after Prop 11;
    default is the unit service of the main model.
    """
    ext_times = np.asarray(ext_times, dtype=float)
    ext_arcs = np.asarray(ext_arcs, dtype=np.int64)
    if ext_times.shape != ext_arcs.shape:
        raise ConfigurationError("ext_times and ext_arcs must be parallel")
    if service_times is not None:
        service_times = np.asarray(service_times, dtype=float)
        if service_times.shape != (spec.num_arcs,):
            raise ConfigurationError(
                f"service_times must have shape ({spec.num_arcs},), "
                f"got {service_times.shape}"
            )
        if np.any(service_times <= 0):
            raise ConfigurationError("service times must be positive")
    n = ext_times.shape[0]
    pids = np.arange(n, dtype=np.int64)
    gen = as_generator(rng)
    levels = spec.num_levels

    # Per-level in-buckets: lists of (arcs, times, pids) chunks.
    buckets: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
        [] for _ in range(levels)
    ]
    if n:
        ext_levels = np.array([spec.arc_level(int(a)) for a in ext_arcs])
        for lvl in range(levels):
            m = ext_levels == lvl
            if m.any():
                buckets[lvl].append((ext_arcs[m], ext_times[m], pids[m]))

    used_decisions: Dict[int, np.ndarray] = {}
    exit_times = np.full(n, np.nan)
    hops = np.zeros(n, dtype=np.int64)
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    for lvl in range(levels):
        if not buckets[lvl]:
            continue
        arcs = np.concatenate([c[0] for c in buckets[lvl]])
        times = np.concatenate([c[1] for c in buckets[lvl]])
        pid_arr = np.concatenate([c[2] for c in buckets[lvl]])
        dep, order = serve_level(
            arcs,
            times,
            pid_arr,
            discipline,
            service=1.0 if service_times is None else service_times,
        )
        hops[pid_arr] += 1
        if record_arc_log:
            logs.append((pid_arr, arcs, times, dep))
        # Route in service order, arc by arc.
        a_s = arcs[order]
        dep_s = dep[order]
        pid_s = pid_arr[order]
        starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
        bounds = np.r_[starts, a_s.shape[0]]
        next_arcs = np.empty(a_s.shape[0], dtype=np.int64)
        for i in range(starts.shape[0]):
            lo, hi = bounds[i], bounds[i + 1]
            arc_id = int(a_s[lo])
            count = hi - lo
            if decisions is not None:
                if arc_id not in decisions or decisions[arc_id].shape[0] < count:
                    raise SimulationError(
                        f"coupled decision sequence for arc {arc_id} too short "
                        f"({count} needed)"
                    )
                dec = decisions[arc_id][:count]
            else:
                dec = spec.draw_decisions(arc_id, count, gen)
                if dec.shape[0] != count:
                    raise SimulationError(
                        f"spec returned {dec.shape[0]} decisions, expected {count}"
                    )
            if record_decisions:
                used_decisions[arc_id] = np.asarray(dec, dtype=np.int64).copy()
            next_arcs[lo:hi] = dec
        exiting = next_arcs == EXIT
        exit_times[pid_s[exiting]] = dep_s[exiting]
        moving = ~exiting
        if moving.any():
            mv_arcs = next_arcs[moving]
            mv_levels = np.array([spec.arc_level(int(a)) for a in mv_arcs])
            if np.any(mv_levels <= lvl):
                raise SimulationError(
                    "routing decision violates the levelled property"
                )
            for nxt in np.unique(mv_levels):
                m = mv_levels == nxt
                buckets[int(nxt)].append(
                    (mv_arcs[m], dep_s[moving][m], pid_s[moving][m])
                )
    if np.any(np.isnan(exit_times)):  # pragma: no cover - internal invariant
        raise SimulationError("some customers never exited the network")
    arc_log = _merge_logs(logs) if record_arc_log else None
    return MarkovianResult(
        exit_times,
        hops,
        arc_log,
        used_decisions if record_decisions else None,
    )

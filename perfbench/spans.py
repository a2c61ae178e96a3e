"""Layer spans recorded around calls into the package's public functions.

The benchmark splits each workload's time across the package's modules
without changing them: :class:`Tracer` replaces each public function or
method named in :data:`TARGETS` with a wrapper that records a
:class:`Span` (layer, start, end, the span that caused it, and counts
read from the call's arguments or return value), then puts the
originals back.  Wrappers exist only inside ``with tracer.installed():``.

A target that no longer resolves -- a module, class or function renamed
or deleted by a later change -- is reported in :attr:`Tracer.missing`
instead of raising, so the traced run keeps working while the package
is refactored.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: a layer name, or a function of the call's ``(args, kwargs)`` giving it
Layer = Union[str, Callable[[tuple, dict], str]]
#: counts read from ``(args, kwargs, result)``
Counter = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass
class Span:
    id: int
    parent: Optional["Span"]
    layer: str
    fn: str
    phase: str
    op: Optional[int]
    start: int
    end: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": None if self.parent is None else self.parent.id,
            "layer": self.layer,
            "fn": self.fn,
            "phase": self.phase,
            "op": self.op,
            "start_ns": self.start,
            "end_ns": self.end,
            "counts": self.counts,
        }


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module`` plus a dotted
    ``qualname`` (``"func"`` or ``"Class.method"``).  A method target
    also wraps every subclass override of that method."""

    module: str
    qualname: str
    layer: Layer
    counter: Optional[Counter] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self, targets: Iterable[Target] = ()) -> None:
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.phase = "main"
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._op: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_op", default=None
        )
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str, fn: str = "") -> Iterator[Span]:
        parent = self._current.get()
        sp = Span(
            next(self._ids), parent, layer, fn, self.phase, self._op.get(),
            time.perf_counter_ns(),
        )
        token = self._current.set(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(sp)

    @contextlib.contextmanager
    def operation(self) -> Iterator[int]:
        """Tag every span opened inside with one operation id (the
        spans of one request share it)."""
        token = self._op.set(next(self._ops))
        try:
            yield self._op.get()
        finally:
            self._op.reset(token)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        label = target.label

        def layer_of(args: tuple, kwargs: dict) -> str:
            return target.layer(args, kwargs) if callable(target.layer) else target.layer

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(layer_of(args, kwargs), label) as sp:
                    result = await fn(*args, **kwargs)
                    if target.counter is not None:
                        sp.counts = target.counter(args, kwargs, result)
                    return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer_of(args, kwargs), label) as sp:
                result = fn(*args, **kwargs)
                if target.counter is not None:
                    sp.counts = target.counter(args, kwargs, result)
                return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _resolve(self, target: Target) -> Optional[Tuple[Any, str]]:
        try:
            owner: Any = importlib.import_module(target.module)
        except ImportError:
            return None
        *path, name = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, name):
            return None
        return owner, name

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def _install_method(self, cls: type, name: str, target: Target) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self._wrap(raw.__func__, target)))
        elif isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(self._wrap(raw.__func__, target)))
        else:
            self._set(cls, name, self._wrap(raw, target))

    def _install_function(self, module: Any, name: str, target: Target) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(original, target)
        # rebind every package module that imported the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(target.module.split(".")[0]):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        self.missing = []
        for target in self.targets:
            resolved = self._resolve(target)
            if resolved is None:
                self.missing.append(target.label)
                continue
            owner, name = resolved
            if inspect.isclass(owner):
                classes = [owner, *_subclasses(owner)]
                for cls in classes:
                    if name in vars(cls):
                        self._install_method(cls, name, target)
            else:
                self._install_function(owner, name, target)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, phase: str = "main") -> Iterator["Tracer"]:
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.phase = "main"


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in out:
            out.append(sub)
            stack.extend(sub.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_time(sp: Span, children: List[Span]) -> int:
    """*sp*'s duration minus the part of its interval its children
    cover (overlapping children are counted once)."""
    covered = 0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, sp.start), min(c.end, sp.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return sp.duration - covered


def _ancestors(sp: Span) -> Iterator[Span]:
    anc = sp.parent
    while anc is not None:
        yield anc
        anc = anc.parent


@dataclass
class LayerTotals:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    counts: Dict[str, float] = field(default_factory=dict)


def aggregate(
    spans: Iterable[Span], keep: Callable[[Span], bool] = lambda sp: True
) -> Dict[str, LayerTotals]:
    """Per-layer totals over the kept spans.

    ``calls`` and ``busy_ns`` count only a layer's outermost spans (a
    span nested in another of its own layer is already inside that
    one's interval), and a count is taken from the outermost span of
    its layer that reports it (a batch call that loops over the
    single-item call must not count its items twice); ``self_ns`` sums
    every span's self time, taken against all children, kept or not.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent.id, []).append(sp)
    out: Dict[str, LayerTotals] = {}
    for sp in spans:
        if not keep(sp):
            continue
        tot = out.setdefault(sp.layer, LayerTotals())
        tot.self_ns += self_time(sp, children.get(sp.id, []))
        same_layer = [a for a in _ancestors(sp) if a.layer == sp.layer]
        if not same_layer:
            tot.calls += 1
            tot.busy_ns += sp.duration
        for key, value in sp.counts.items():
            if not any(key in a.counts for a in same_layer):
                tot.counts[key] = tot.counts.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# what the benchmark wraps
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default: Any = None) -> Any:
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _engine_layer(args: tuple, kwargs: dict) -> str:
    return f"engines.{getattr(args[0], 'name', 'unknown')}"


def _serve_layer(args: tuple, kwargs: dict) -> str:
    return f"sim.feedforward.serve_{_arg(args, kwargs, 3, 'discipline', 'fifo')}"


def _sample_packets(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"packets": _arg(args, kwargs, 3, "sample").num_packets}


def _samples_packets(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"packets": sum(s.num_packets for s in _arg(args, kwargs, 3, "samples"))}


def _result_packets(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    samples = result if isinstance(result, list) else [result]
    return {"packets": sum(s.num_packets for s in samples)}


def _birth_packets(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"packets": len(_arg(args, kwargs, 1, "birth_times"))}


def _batch_birth_packets(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"packets": sum(len(t) for t in _arg(args, kwargs, 1, "birth_times"))}


def _rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"rows": len(_arg(args, kwargs, 0, "arcs"))}


def _hits(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"hits": int(result is not None)}


def _specs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"tasks": len(_arg(args, kwargs, 0, "specs"))}


def _sweep_rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"sweep_rows": getattr(result, "sweep_rows", 0)}


TARGETS: Tuple[Target, ...] = (
    Target("repro.runner.spec", "ScenarioSpec.from_dict", "runner.spec"),
    Target("repro.runner.spec", "ScenarioSpec.content_hash", "runner.spec"),
    Target("repro.runner.spec", "ScenarioSpec.replication_hash", "runner.spec"),
    Target("repro.runner.store", "ResultsStore.load", "runner.store.read", _hits),
    Target("repro.runner.store", "ResultsStore.load_replication", "runner.store.read", _hits),
    Target("repro.runner.store", "ResultsStore.save", "runner.store.write"),
    Target("repro.runner.store", "ResultsStore.save_replication", "runner.store.write"),
    Target("repro.runner.engine", "measure_many", "runner.engine", _specs),
    Target("repro.networks.api", "NetworkPlugin.build_topology", "networks.build_topology"),
    Target("repro.networks.api", "NetworkPlugin.build_workload_batch", "traffic", _result_packets),
    Target("repro.traffic.workload", "HypercubeWorkload.generate", "traffic", _result_packets),
    Target("repro.traffic.workload", "ButterflyWorkload.generate", "traffic", _result_packets),
    Target("repro.traffic.workload", "NodePoissonWorkload.generate", "traffic", _result_packets),
    Target(
        "repro.traffic.workload", "SlottedHypercubeWorkload.generate", "traffic", _result_packets
    ),
    Target("repro.traffic.bursty", "BurstyWorkload.generate", "traffic", _result_packets),
    Target("repro.engines.api", "EnginePlugin.simulate", _engine_layer, _sample_packets),
    Target("repro.engines.api", "EnginePlugin.simulate_batch", _engine_layer),
    Target("repro.engines.api", "EnginePlugin.batch_deliveries", _engine_layer, _samples_packets),
    Target("repro.sim.eventsim", "simulate_paths_event_driven", "engines.event", _birth_packets),
    Target(
        "repro.sim.eventsim",
        "simulate_paths_event_driven_batch",
        "engines.event",
        _batch_birth_packets,
    ),
    Target("repro.sim.feedforward", "serve_level", _serve_layer, _rows),
    Target("repro.sim.servers", "ps_departure_times", "sim.servers.ps"),
    Target("repro.sim.fixedpoint", "simulate_paths_fixed_point", "sim.fixedpoint", _sweep_rows),
    Target("repro.stats", "mean_confidence_interval", "stats.ci"),
    Target("repro.serve.http", "read_request", "serve.http.parse"),
    Target("repro.serve.http", "send_json", "serve.http.respond"),
)

#: layers whose work runs inside pool workers at ``jobs > 1``; a
#: workload that repeats its pool work at ``jobs=1`` takes these from
#: the repeat
WORKER_LAYERS = (
    "traffic",
    "networks.",
    "engines.",
    "sim.",
)


def is_worker_layer(layer: str) -> bool:
    return any(layer == p or layer.startswith(p) for p in WORKER_LAYERS)

"""Tests for the plugin registry the four axes share.

Schemes, networks, traffic laws and engines are each one
:class:`~repro.plugins.registry.PluginRegistry`.  These tests run the
same cases over all four: entry-point discovery (a good plugin and a
broken one), the two registration faults a per-axis copy once had (a
newcomer whose *name* is another plugin's alias, and a newcomer
registered before the first lookup), and a snapshot of every lookup and
registration error message, which must stay byte-identical.
"""

from __future__ import annotations

import importlib
import importlib.metadata as md
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.engines.api import EngineCapabilities, EnginePlugin
from repro.errors import ConfigurationError
from repro.networks.api import NetworkPlugin
from repro.plugins.api import Capabilities, SchemePlugin
from repro.traffic.api import TrafficPlugin

SRC = str(Path(repro.__file__).resolve().parents[1])

#: per axis: registry module, public function names, and the class
#: attributes a minimal valid plugin needs
AXES = {
    "scheme": dict(
        module="repro.plugins.registry",
        registry="SCHEMES",
        register="register_scheme",
        unregister="unregister_scheme",
        get="get_plugin",
        available="available_schemes",
        base=SchemePlugin,
        attrs={"capabilities": Capabilities(networks=("hypercube",))},
    ),
    "network": dict(
        module="repro.networks.registry",
        registry="NETWORKS",
        register="register_network",
        unregister="unregister_network",
        get="get_network",
        available="available_networks",
        base=NetworkPlugin,
        attrs={},
    ),
    "traffic": dict(
        module="repro.traffic.registry",
        registry="TRAFFICS",
        register="register_traffic",
        unregister="unregister_traffic",
        get="get_traffic",
        available="available_traffics",
        base=TrafficPlugin,
        attrs={},
    ),
    "engine": dict(
        module="repro.engines.registry",
        registry="ENGINES",
        register="register_engine",
        unregister="unregister_engine",
        get="get_engine",
        available="available_engines",
        base=EnginePlugin,
        attrs={"capabilities": EngineCapabilities(kind="event")},
    ),
}


def fn(axis: str, role: str):
    """The axis's public ``role`` function (``register_network``, ...)."""
    return getattr(importlib.import_module(AXES[axis]["module"]), AXES[axis][role])


def plugin_class(axis: str, name: str, **attrs):
    """A minimal valid plugin class for *axis* named *name*."""
    body = {"name": name, **AXES[axis]["attrs"], **attrs}
    return type(f"Fake_{axis}_{name}", (AXES[axis]["base"],), body)


class FakeEP:
    def __init__(self, name, target):
        self.name = name
        self._target = target

    def load(self):
        if isinstance(self._target, Exception):
            raise self._target
        return self._target


def load_entry_points(axis, monkeypatch, eps):
    monkeypatch.setattr(md, "entry_points", lambda group=None: list(eps))
    registry = getattr(importlib.import_module(AXES[axis]["module"]), AXES[axis]["registry"])
    registry.load_entry_points()


# -- entry points ------------------------------------------------------------


@pytest.mark.parametrize("axis", sorted(AXES))
def test_entry_point_discovery(axis, monkeypatch):
    before = fn(axis, "available")()
    good = FakeEP(f"ep-{axis}", plugin_class(axis, f"ep-{axis}"))
    broken = FakeEP(f"broken-{axis}", ImportError("third-party package is broken"))
    try:
        with pytest.warns(RuntimeWarning, match=f"broken-{axis}"):
            load_entry_points(axis, monkeypatch, [good, broken])
        assert f"ep-{axis}" in fn(axis, "available")()
        assert f"broken-{axis}" not in fn(axis, "available")()
    finally:
        fn(axis, "unregister")(f"ep-{axis}")
    # the registry stays usable, built-ins intact
    assert fn(axis, "available")() == before
    for name in before:
        assert fn(axis, "get")(name).name == name


@pytest.mark.parametrize(
    "ep_name, attrs, reason",
    [
        ("auto", {}, "reserved"),
        ("warp-engine", {"capabilities": EngineCapabilities(kind="warp")}, "unknown kind"),
    ],
)
def test_bad_engine_entry_point_warns_and_is_skipped(ep_name, attrs, reason, monkeypatch):
    from repro.engines import available_engines, get_engine

    before = available_engines()
    bad = FakeEP(ep_name, plugin_class("engine", ep_name, **attrs))
    with pytest.warns(RuntimeWarning, match=f"{ep_name!r} failed to load: .*{reason}"):
        load_entry_points("engine", monkeypatch, [bad])
    assert available_engines() == before
    assert get_engine("feedforward").name == "feedforward"


# -- registration faults -----------------------------------------------------

#: a built-in alias per aliased axis
ALIAS_OF = {"network": ("cube", "hypercube"), "traffic": ("bernoulli", "uniform"),
            "engine": ("ff", "feedforward")}


@pytest.mark.parametrize("axis", sorted(ALIAS_OF))
def test_name_that_is_another_plugins_alias_is_rejected(axis):
    alias, owner = ALIAS_OF[axis]
    fn(axis, "get")(owner)  # built-ins loaded
    try:
        with pytest.raises(ConfigurationError, match=f"{axis} {alias!r} collides") as err:
            fn(axis, "register")(plugin_class(axis, alias))
        # the message enumerates what is taken
        assert owner in str(err.value) and alias in str(err.value)
    finally:
        if alias in fn(axis, "available")():
            fn(axis, "unregister")(alias)
    assert fn(axis, "get")(alias).name == owner
    assert alias not in fn(axis, "available")()


#: per axis, a newcomer name that a built-in already holds
TAKEN = {"scheme": "greedy", "network": "cube", "traffic": "bernoulli", "engine": "ff"}

_FRESH_PROBE = """
import importlib, json
from repro.errors import ConfigurationError
{imports}
mod = importlib.import_module({module!r})
Newcomer = type("Newcomer", ({base},), dict(name={name!r}, **{attrs}))
try:
    getattr(mod, {register!r})(Newcomer)
except ConfigurationError as exc:
    message = str(exc)
else:
    message = None
available = getattr(mod, {available!r})()
reached = [getattr(mod, {get!r})(n).name for n in available]
print(json.dumps(dict(message=message, available=available, reached=reached)))
"""

_FRESH_SETUP = {
    "scheme": ("from repro.plugins.api import Capabilities, SchemePlugin", "SchemePlugin",
               "dict(capabilities=Capabilities(networks=('hypercube',)))"),
    "network": ("from repro.networks.api import NetworkPlugin", "NetworkPlugin", "{}"),
    "traffic": ("from repro.traffic.api import TrafficPlugin", "TrafficPlugin", "{}"),
    "engine": ("from repro.engines.api import EngineCapabilities, EnginePlugin",
               "EnginePlugin", "dict(capabilities=EngineCapabilities(kind='event'))"),
}


@pytest.mark.parametrize("axis", sorted(TAKEN))
def test_registration_before_first_lookup_is_checked_against_builtins(axis, tmp_path):
    """In a fresh interpreter a newcomer registered before any lookup
    is rejected under its own name, and every built-in stays reachable."""
    imports, base, attrs = _FRESH_SETUP[axis]
    spec = AXES[axis]
    probe = _FRESH_PROBE.format(
        imports=imports, base=base, attrs=attrs, name=TAKEN[axis], module=spec["module"],
        register=spec["register"], available=spec["available"], get=spec["get"],
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=300, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["message"] is not None, "the newcomer was accepted"
    assert out["message"].startswith(f"{axis} {TAKEN[axis]!r} "), out["message"]
    assert out["available"] == list(fn(axis, "available")())
    assert out["reached"] == out["available"]


# -- error messages ----------------------------------------------------------


class _Obj:
    def __repr__(self):
        return "<obj>"


def _message(thunk):
    with pytest.raises(ConfigurationError) as err:
        thunk()
    return str(err.value)


_SCHEMES = (
    "deflection, greedy, pipelined_batch, random_order, slotted, static_greedy, "
    "static_valiant, twophase"
)
_TRAFFICS = "bitcomp, bitrev, bursty, hotspot, transpose, uniform"

#: (axis, case) -> (how to provoke it, the exact message)
MESSAGES = {
    ("scheme", "unknown"): (
        lambda: fn("scheme", "get")("nope"),
        f"unknown scheme 'nope'; registered schemes: {_SCHEMES}",
    ),
    ("scheme", "protocol"): (
        lambda: fn("scheme", "register")(_Obj()),
        "<obj> does not implement the SchemePlugin protocol",
    ),
    ("scheme", "empty"): (
        lambda: fn("scheme", "register")(plugin_class("scheme", "")),
        "a scheme plugin needs a non-empty name",
    ),
    ("scheme", "no capabilities"): (
        lambda: fn("scheme", "register")(type("N", (SchemePlugin,), {"name": "x1"})),
        "plugin 'x1' declares no capabilities",
    ),
    ("scheme", "duplicate"): (
        lambda: fn("scheme", "register")(plugin_class("scheme", "greedy")),
        "scheme 'greedy' is already registered by GreedyPlugin "
        "(pass overwrite=True to replace it)",
    ),
    ("network", "unknown"): (
        lambda: fn("network", "get")("nope"),
        "unknown network 'nope'; registered networks: butterfly, hypercube, ring, torus",
    ),
    ("network", "protocol"): (
        lambda: fn("network", "register")(_Obj()),
        "<obj> does not implement the NetworkPlugin protocol",
    ),
    ("network", "empty"): (
        lambda: fn("network", "register")(plugin_class("network", "")),
        "a network plugin needs a non-empty name",
    ),
    ("network", "duplicate"): (
        lambda: fn("network", "register")(plugin_class("network", "hypercube")),
        "network 'hypercube' is already registered by HypercubeNetwork "
        "(pass overwrite=True to replace it)",
    ),
    ("network", "alias"): (
        lambda: fn("network", "register")(plugin_class("network", "x2", aliases=("cube",))),
        "alias 'cube' of network 'x2' collides with an existing network name or alias",
    ),
    ("traffic", "unknown"): (
        lambda: fn("traffic", "get")("nope"),
        f"unknown traffic 'nope'; registered traffic laws: {_TRAFFICS}",
    ),
    ("traffic", "protocol"): (
        lambda: fn("traffic", "register")(_Obj()),
        "<obj> does not implement the TrafficPlugin protocol",
    ),
    ("traffic", "empty"): (
        lambda: fn("traffic", "register")(plugin_class("traffic", "")),
        "a traffic plugin needs a non-empty name",
    ),
    ("traffic", "duplicate"): (
        lambda: fn("traffic", "register")(plugin_class("traffic", "uniform")),
        "traffic 'uniform' is already registered by UniformTraffic "
        "(pass overwrite=True to replace it)",
    ),
    ("traffic", "alias"): (
        lambda: fn("traffic", "register")(
            plugin_class("traffic", "x3", aliases=("bernoulli",))
        ),
        "alias 'bernoulli' of traffic 'x3' collides with an existing traffic name or alias",
    ),
    ("traffic", "legacy law"): (
        lambda: importlib.import_module("repro.traffic.registry").merge_legacy_law(
            "uniform", "zzz"
        ),
        "unknown legacy destination law 'zzz' (one of bernoulli, bitrev); prefer the "
        f"traffic axis: ScenarioSpec(traffic=...) with one of {_TRAFFICS}",
    ),
    ("engine", "unknown"): (
        lambda: fn("engine", "get")("nope"),
        "unknown engine 'nope'; registered engines: event, feedforward, fixedpoint "
        "(plus the directives auto, vectorized)",
    ),
    ("engine", "protocol"): (
        lambda: fn("engine", "register")(_Obj()),
        "<obj> does not implement the EnginePlugin protocol",
    ),
    ("engine", "empty"): (
        lambda: fn("engine", "register")(plugin_class("engine", "")),
        "an engine plugin needs a non-empty name",
    ),
    ("engine", "no capabilities"): (
        lambda: fn("engine", "register")(type("N", (EnginePlugin,), {"name": "x4"})),
        "engine 'x4' declares no capabilities",
    ),
    ("engine", "unknown kind"): (
        lambda: fn("engine", "register")(
            plugin_class("engine", "x5", capabilities=EngineCapabilities(kind="warp"))
        ),
        "engine 'x5': unknown kind 'warp' (one of levelled, event, fixed-point)",
    ),
    ("engine", "reserved"): (
        lambda: fn("engine", "register")(plugin_class("engine", "auto")),
        "engine name 'auto' is reserved (it is a selection directive, resolved per spec)",
    ),
    ("engine", "reserved alias"): (
        lambda: fn("engine", "register")(
            plugin_class("engine", "x6", aliases=("vectorized",))
        ),
        "engine name 'vectorized' is reserved (it is a selection directive, resolved per spec)",
    ),
    ("engine", "duplicate"): (
        lambda: fn("engine", "register")(plugin_class("engine", "feedforward")),
        "engine 'feedforward' is already registered by FeedForwardEngine "
        "(pass overwrite=True to replace it)",
    ),
    ("engine", "alias"): (
        lambda: fn("engine", "register")(plugin_class("engine", "x7", aliases=("eventsim",))),
        "alias 'eventsim' of engine 'x7' collides with an existing engine name or alias",
    ),
    ("engine", "normalize"): (
        lambda: importlib.import_module("repro.engines").normalize_engine_name("nope"),
        "unknown engine 'nope'; registered engines: event, feedforward, fixedpoint "
        "(plus the directives auto, vectorized)",
    ),
}


@pytest.mark.parametrize("case", sorted(MESSAGES), ids=lambda c: "-".join(c).replace(" ", "_"))
def test_error_messages_are_stable(case):
    thunk, expected = MESSAGES[case]
    assert _message(thunk) == expected


@pytest.mark.parametrize("axis", sorted(AXES))
def test_entry_point_warning_text_is_stable(axis, monkeypatch):
    broken = FakeEP("broken", ImportError("boom"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_entry_points(axis, monkeypatch, [broken])
    assert [str(w.message) for w in caught] == [
        f"{axis} plugin entry point 'broken' failed to load: boom"
    ]


def test_declared_names_keep_the_wildcard_and_unknowns():
    from repro.engines import declared_engine_names
    from repro.traffic.registry import declared_traffic_names

    assert declared_traffic_names(("*", "bernoulli", "nope", "uniform")) == (
        "*", "uniform", "nope",
    )
    assert declared_engine_names(("auto", "ff", "*")) == ("auto", "feedforward", "*")

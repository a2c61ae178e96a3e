"""The plugin registry shared by every axis, and the scheme registry.

:class:`PluginRegistry` is the one implementation behind the scheme,
network, traffic and engine axes (replacing the closed ``_DISPATCH``
table of the pre-plugin code).  Each axis is one module-level instance
built from its kind, base class, entry-point group and built-in module
list, and is populated from three sources:

1. **Built-ins** — the registry's built-in modules are imported lazily
   on first lookup; each registers its plugins at import time via the
   axis's ``register_*`` decorator.
2. **Entry points** — third-party distributions may declare::

       [project.entry-points."repro.scheme_plugins"]
       myscheme = "mypkg.plugins:MySchemePlugin"

   (``repro.network_plugins``, ``repro.traffic_plugins`` and
   ``repro.engine_plugins`` on the other axes) and are discovered
   through :mod:`importlib.metadata` without this repository knowing
   about them.  A broken third-party plugin emits a warning instead of
   taking the registry down.
3. **Runtime** — tests and notebooks call ``register_*`` /
   ``unregister_*`` directly.  A runtime registration loads the
   built-ins first, so a newcomer that takes a built-in's name or
   alias is rejected under its own name instead of breaking the
   built-in load later.

Lookups accept **aliases** (``"cube"`` for ``"hypercube"``), and
:class:`~repro.runner.spec.ScenarioSpec` stores (and content-hashes)
the canonical spelling, so an alias and its canonical name always
share one cache cell.  Error messages always enumerate what *is*
registered, so ``ScenarioSpec(scheme="typo", ...)`` is
self-diagnosing.

This module imports only the stdlib, :mod:`repro.errors` and
:mod:`repro.plugins.api`, so every axis can build on it without cycles.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Generic, Iterable, List, Optional, Tuple, Type, TypeVar, Union

from repro.errors import ConfigurationError
from repro.plugins.api import SchemePlugin

__all__ = [
    "register_scheme",
    "unregister_scheme",
    "get_plugin",
    "iter_plugins",
    "available_schemes",
    "available_networks",
    "schemes_for_network",
    "schemes_for_traffic",
    "ENTRY_POINT_GROUP",
]

P = TypeVar("P")


class PluginRegistry(Generic[P]):
    """Name → plugin table for one axis, with aliases, lazy built-ins
    and entry-point discovery.

    *kind* names the axis in messages (``"unknown network 'x'"``);
    *listing* is the plural used when enumerating (default
    ``kind + "s"``).  *reserved* names are selection directives: never
    registrable, passed through by :meth:`normalize`.  *check* runs on
    every candidate plugin and raises on axis-specific defects (a
    missing ``capabilities``, say).
    """

    def __init__(
        self,
        kind: str,
        base: Type[P],
        group: str,
        builtins: Iterable[str],
        *,
        listing: Optional[str] = None,
        reserved: Iterable[str] = (),
        check: Optional[Callable[[P], None]] = None,
    ) -> None:
        self.kind = kind
        self.base = base
        self.group = group
        self.builtins = tuple(builtins)
        self.listing = listing or f"{kind}s"
        self.reserved = tuple(reserved)
        self._directives = (
            f" (plus the directives {', '.join(self.reserved)})" if self.reserved else ""
        )
        self._check = check
        self._plugins: Dict[str, P] = {}
        self._aliases: Dict[str, str] = {}  # alias -> canonical name
        self._loaded = False
        self._loading = False

    def register(self, plugin: Union[P, Type[P]], *, overwrite: bool = False) -> Union[P, Type[P]]:
        """Register a plugin (usable as a class decorator).

        Accepts either an instance or a subclass of the axis's base
        class (which is instantiated with no arguments).  Returns its
        argument unchanged so it composes as a decorator above a class
        definition.
        """
        instance = plugin() if isinstance(plugin, type) else plugin
        if not isinstance(instance, self.base):
            raise ConfigurationError(
                f"{instance!r} does not implement the {self.base.__name__} protocol"
            )
        name = instance.name
        if not name:
            article = "an" if self.kind[0] in "aeiou" else "a"
            raise ConfigurationError(f"{article} {self.kind} plugin needs a non-empty name")
        if self._check is not None:
            self._check(instance)
        aliases = tuple(getattr(instance, "aliases", ()))
        for reserved in self.reserved:
            if reserved == name or reserved in aliases:
                raise ConfigurationError(
                    f"{self.kind} name {reserved!r} is reserved (it is a "
                    "selection directive, resolved per spec)"
                )
        if type(instance).__module__ not in self.builtins:
            # a newcomer is checked against the built-ins; while they
            # load, the re-entrancy guard makes this a no-op
            self.ensure_loaded()
        existing = self._plugins.get(name)
        if existing is not None and not overwrite:
            if type(existing) is type(instance):
                return plugin  # idempotent re-import of the same plugin
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered by "
                f"{type(existing).__name__} (pass overwrite=True to replace it)"
            )
        owner = self._aliases.get(name, name)
        if owner != name:
            taken = ", ".join(sorted({*self._plugins, *self._aliases}))
            raise ConfigurationError(
                f"{self.kind} {name!r} collides with an alias of "
                f"{self.kind} {owner!r}; taken names and aliases: {taken}"
            )
        for alias in aliases:
            # an alias may never shadow a canonical name, nor an alias a
            # *different* plugin owns — overwrite only replaces same-name
            # registrations, it does not license alias theft
            if alias in self._plugins or self._aliases.get(alias, name) != name:
                raise ConfigurationError(
                    f"alias {alias!r} of {self.kind} {name!r} collides "
                    f"with an existing {self.kind} name or alias"
                )
        if existing is not None:
            self.unregister(name)
        self._plugins[name] = instance
        for alias in aliases:
            self._aliases[alias] = name
        return plugin

    def unregister(self, name: str) -> None:
        """Remove a plugin and the aliases it owns (primarily for tests)."""
        plugin = self._plugins.pop(name, None)
        if plugin is not None:
            for alias in getattr(plugin, "aliases", ()):
                if self._aliases.get(alias) == name:
                    self._aliases.pop(alias)

    def load_entry_points(self) -> None:
        """Register the plugins third-party distributions declare in
        the registry's entry-point group; a broken one only warns."""
        try:
            from importlib.metadata import entry_points
        except ImportError:  # pragma: no cover - stdlib since 3.8
            return
        try:
            eps = entry_points(group=self.group)
        except TypeError:  # pragma: no cover - pre-3.10 selection API
            eps = entry_points().get(self.group, ())
        for ep in eps:
            if ep.name in self._plugins or ep.name in self._aliases:
                continue  # built-ins (or an earlier entry point) win
            try:
                self.register(ep.load())
            except Exception as exc:  # noqa: BLE001 - isolate bad third parties
                warnings.warn(
                    f"{self.kind} plugin entry point {ep.name!r} failed to load: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def ensure_loaded(self) -> None:
        """Import the built-in modules and discover entry points, once."""
        if self._loaded or self._loading:
            return
        self._loading = True  # re-entrancy guard, cleared on failure so a
        try:  # broken import can be fixed and retried within the process
            import importlib

            for module in self.builtins:
                importlib.import_module(module)
            self.load_entry_points()
            self._loaded = True
        finally:
            self._loading = False

    def get(self, name: str) -> P:
        """The plugin registered under *name* (canonical or alias), or an
        enumerating error."""
        self.ensure_loaded()
        plugin = self._plugins.get(self._aliases.get(name, name))
        if plugin is None:
            known = ", ".join(sorted(self._plugins)) or "(none)"
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered {self.listing}: "
                f"{known}{self._directives}"
            )
        return plugin

    def canonical(self, name: str) -> str:
        """Resolve *name* (canonical or alias) to the canonical name."""
        return self.get(name).name

    def normalize(self, name: str) -> str:
        """The spelling a :class:`~repro.runner.spec.ScenarioSpec` stores.

        Reserved directives pass through unchanged (they resolve per
        spec); anything else is canonicalised through the registry —
        **before** content-hashing, so an alias and its canonical name
        always share one cache cell — or rejected with an enumerating
        error.
        """
        if name in self.reserved:
            return name
        return self.canonical(name)

    def iter(self) -> List[P]:
        """All registered plugins, sorted by canonical name."""
        self.ensure_loaded()
        return [self._plugins[name] for name in sorted(self._plugins)]

    def available(self) -> Tuple[str, ...]:
        """Sorted canonical names of every registered plugin."""
        self.ensure_loaded()
        return tuple(sorted(self._plugins))

    def all_names(self) -> Tuple[str, ...]:
        """Sorted canonical names, aliases *and* directives (the CLI
        vocabulary)."""
        self.ensure_loaded()
        return tuple(sorted({*self._plugins, *self._aliases, *self.reserved}))

    def declared(self, names: Iterable[str]) -> Tuple[str, ...]:
        """Canonicalise a scheme's declared capability tuple (the
        wildcard and directives pass through; aliases collapse to
        canonical names).

        A declared name that resolves to no registered plugin is kept
        verbatim rather than raised on: a scheme may declare a
        companion plugin whose distribution is not installed, and that
        must not poison the plugins that *are* registered (nor the
        ``repro`` capability matrices)."""
        out = []
        for name in names:
            try:
                out.append(name if name == "*" else self.normalize(name))
            except ConfigurationError:
                out.append(name)
        return tuple(dict.fromkeys(out))


def _check_scheme(plugin: SchemePlugin) -> None:
    if getattr(plugin, "capabilities", None) is None:
        raise ConfigurationError(f"plugin {plugin.name!r} declares no capabilities")


ENTRY_POINT_GROUP = "repro.scheme_plugins"

SCHEMES: PluginRegistry[SchemePlugin] = PluginRegistry(
    "scheme",
    SchemePlugin,
    ENTRY_POINT_GROUP,
    (
        "repro.plugins.greedy",
        "repro.plugins.slotted",
        "repro.schemes.random_order",
        "repro.schemes.twophase",
        "repro.schemes.valiant",
        "repro.schemes.deflection",
        "repro.schemes.static_tasks",
    ),
    check=_check_scheme,
)

register_scheme = SCHEMES.register
unregister_scheme = SCHEMES.unregister
get_plugin = SCHEMES.get
iter_plugins = SCHEMES.iter
available_schemes = SCHEMES.available


def available_networks() -> Tuple[str, ...]:
    """Sorted canonical names of every registered **network plugin**.

    The network axis has its own registry
    (:mod:`repro.networks.registry`); this re-export keeps the historic
    import path working and makes scheme-capability validation a true
    scheme x network cross-product.
    """
    from repro.networks.registry import available_networks as _nets

    return _nets()


def schemes_for_network(network: str) -> Tuple[str, ...]:
    """Sorted names of the schemes that can run on *network*
    (canonical name or alias)."""
    from repro.networks.registry import canonical_network_name

    try:
        canon = canonical_network_name(network)
    except ConfigurationError:
        return ()  # unknown network: no scheme supports it
    return tuple(
        p.name
        for p in SCHEMES.iter()
        if canon in p.capabilities.networks or "*" in p.capabilities.networks
    )


def schemes_for_traffic(traffic: str) -> Tuple[str, ...]:
    """Sorted names of the schemes that can run under *traffic*
    (canonical name or alias)."""
    from repro.traffic.registry import canonical_traffic_name, declared_traffic_names

    try:
        canon = canonical_traffic_name(traffic)
    except ConfigurationError:
        return ()  # unknown traffic: no scheme supports it
    return tuple(
        p.name
        for p in SCHEMES.iter()
        if canon in declared_traffic_names(p.capabilities.traffics)
        or "*" in p.capabilities.traffics
    )

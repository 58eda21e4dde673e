"""Component registries: pluggable BTB designs and instruction prefetchers.

The factory layer used to be a closed if/elif chain over string tags inside
the design builder (now :func:`repro.core.designs.design_from_spec`); every
new component meant editing core files.  This module replaces that with
decorator-based registries:

* component modules self-register their factories at import time
  (``@BTB_REGISTRY.register("conventional")``), and
* user code can register custom components without touching ``repro.core``::

      from repro.registry import BTB_REGISTRY, BuildContext

      @BTB_REGISTRY.register("my_btb")
      def build_my_btb(ctx: BuildContext, **params):
          return MyBTB(**params)

A factory receives a :class:`BuildContext` describing the sharable
surroundings of the core being assembled (program image, LLC, L1-I, shared
SHIFT history) plus the parameter overrides carried by the
:class:`~repro.core.designs.DesignSpec` that named it.  Factories for
integrated frontends (Confluence's AirBTB) may deposit the integration object
on ``ctx.confluence`` so downstream factories (the SHIFT prefetcher) and the
simulator wiring can pick it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.caches.l1i import InstructionCache
    from repro.caches.llc import SharedLLC
    from repro.core.confluence import Confluence
    from repro.prefetch.shift import ShiftHistory
    from repro.workloads.cfg import SyntheticProgram


class UnknownComponentError(KeyError):
    """Raised when a name is not found in a registry or catalog.

    Subclasses :class:`KeyError` so existing ``except KeyError`` call sites
    keep working, but renders its message without the quoting ``KeyError``
    applies to its first argument.
    """

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.args[0] if self.args else ""


def unknown_name_error(
    kind: str, name: str, known: Iterable[str]
) -> UnknownComponentError:
    """The single unknown-name error used by registries and catalogs."""
    listing = ", ".join(sorted(known))
    return UnknownComponentError(f"unknown {kind} {name!r}; known: {listing}")


def ensure_unique_names(
    kind: str,
    names: Iterable[str],
    hint: str = "DesignSpec.derive() renames a spec",
) -> None:
    """The single duplicate-name check used by runs, grids and sweeps.

    Results are keyed by name, so colliding names would silently overwrite
    each other; refuse loudly instead.
    """
    counts: Dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    duplicates = sorted(name for name, count in counts.items() if count > 1)
    if duplicates:
        raise ValueError(
            f"duplicate {kind} name(s): {', '.join(duplicates)} — every "
            f"{kind} in a run needs a unique name ({hint})"
        )


def check_count(name: str, value: object, minimum: int) -> None:
    """The single check of a component's count setting (a size, a depth).

    A count is an ``int`` of at least ``minimum``; a ``bool`` is not a count
    even though it is an ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


@dataclass
class BuildContext:
    """Everything a component factory may need beyond its own parameters.

    Attributes:
        program: the synthetic program the core will run (``None`` for bare
            component builds that do not need a program image).
        llc: the shared last-level cache (virtualized metadata lives here).
        l1i: the core's instruction cache.
        shared_history: SHIFT history shared across cores, if any.
        record_history: whether this core records the shared history.
        confluence: set by the AirBTB factory so the prefetcher factory and
            the simulator wiring can reuse the integrated instance.
    """

    program: Optional["SyntheticProgram"]
    llc: "SharedLLC"
    l1i: "InstructionCache"
    shared_history: Optional["ShiftHistory"] = None
    record_history: bool = True
    confluence: Optional["Confluence"] = None


ComponentFactory = Callable[..., object]


class Registry:
    """Name -> factory mapping with decorator-based registration.

    ``loader`` is an optional zero-argument hook invoked on the first lookup
    miss; it imports whatever modules self-register into this registry (the
    BTB and prefetcher registries use :func:`load_builtin_components`).  The
    hook must be idempotent — it runs on every miss until the name resolves.
    """

    def __init__(self, kind: str, loader: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self._factories: Dict[str, ComponentFactory] = {}
        self._loader = loader

    def _load_lazily(self) -> None:
        if self._loader is not None:
            self._loader()

    def register(
        self,
        name: str,
        factory: Optional[ComponentFactory] = None,
        *,
        overwrite: bool = False,
    ) -> Callable[[ComponentFactory], ComponentFactory]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Raises :class:`ValueError` on duplicate registration unless
        ``overwrite=True`` is passed.
        """
        if factory is None:

            def decorator(func: ComponentFactory) -> ComponentFactory:
                self.register(name, func, overwrite=overwrite)
                return func

            return decorator
        if not overwrite and name in self._factories:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests and plugin teardown)."""
        self._factories.pop(name, None)

    def get(self, name: str) -> ComponentFactory:
        """Resolve ``name``, running the lazy loader on first miss."""
        try:
            return self._factories[name]
        except KeyError:
            self._load_lazily()
        try:
            return self._factories[name]
        except KeyError:
            raise unknown_name_error(self.kind, name, self._factories) from None

    def __contains__(self, name: str) -> bool:
        if name not in self._factories:
            self._load_lazily()
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)


_BUILTIN_COMPONENT_MODULES = (
    "repro.branch.btb_conventional",
    "repro.branch.btb_two_level",
    "repro.branch.btb_phantom",
    "repro.prefetch.base",
    "repro.prefetch.fdp",
    "repro.prefetch.shift",
    "repro.core.confluence",
)

_builtins_loaded = False


def load_builtin_components() -> None:
    """Import every built-in component module so its factories register.

    Importing :mod:`repro` does this implicitly; the explicit hook keeps the
    registries usable when only :mod:`repro.registry` has been imported.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import importlib

    for module in _BUILTIN_COMPONENT_MODULES:
        importlib.import_module(module)


#: Registry of BTB designs (``conventional``, ``two_level``, ``phantom``,
#: ``perfect``, ``airbtb``, ... plus anything user code registers).
BTB_REGISTRY = Registry("BTB design", loader=load_builtin_components)

#: Registry of instruction prefetchers (``none``, ``fdp``, ``shift``, ...).
PREFETCHER_REGISTRY = Registry("prefetcher", loader=load_builtin_components)


def build_btb(
    name: str,
    program: Optional["SyntheticProgram"] = None,
    llc: Optional["SharedLLC"] = None,
    **params: Any,
) -> Any:
    """Instantiate a registered BTB outside a full design point.

    Used by coverage harnesses and sweeps that drive a bare BTB with a
    branch stream (no frontend timing model around it).
    """
    from repro.caches.l1i import InstructionCache
    from repro.caches.llc import SharedLLC

    context = BuildContext(
        program=program,
        llc=llc if llc is not None else SharedLLC(),
        l1i=InstructionCache(),
    )
    return BTB_REGISTRY.get(name)(context, **params)

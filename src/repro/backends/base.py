"""The ``SimBackend`` protocol and the backend registry.

A *backend* is one implementation of the frontend simulation loop: it takes a
fully wired :class:`~repro.core.frontend.FrontendSimulator` (BPU, L1-I, LLC,
prefetcher, Confluence, config) plus a trace and produces a
:class:`~repro.core.frontend.FrontendResult`.  All backends must be
bit-exact with the ``reference`` backend — the parity suite in
``tests/test_frontend_parity.py`` parameterizes over every registered name
and compares ``dataclasses.asdict`` of the results, so a new backend is
covered the moment it registers.

Backends mirror the component-registry idiom of :mod:`repro.registry`::

    from repro.backends import BACKEND_REGISTRY, SimBackend

    @BACKEND_REGISTRY.register("lockstep_numpy")
    class LockstepBackend(SimBackend):
        name = "lockstep_numpy"
        trace_form = "columnar (.packed)"

        def consumes(self, trace): ...
        def run(self, simulator, trace, warmup): ...

Built-in backends:

* ``scalar`` — the zero-allocation columnar hot loop (the default),
* ``reference`` — the record-view oracle loop, kept as the parity oracle.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, List, TYPE_CHECKING, Union

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.frontend import FrontendResult, FrontendSimulator
    from repro.workloads.trace import Trace


#: Backend used when no ``backend=`` is supplied anywhere in the stack.
DEFAULT_BACKEND = "scalar"


class SimBackend(abc.ABC):
    """One implementation of the frontend simulation loop.

    Backends are stateless: all mutable simulation state (caches, predictors,
    the in-flight prefetch table, the cycle counter) lives on the simulator,
    so one backend instance can serve any number of simulators concurrently.

    Bit-identity invariant: every registered backend must produce *exactly*
    the results of the ``reference`` oracle — same cycle counts, same miss
    counters, same per-core metrics — for any trace and design.  Not "close
    enough": the parity suite (``tests/test_frontend_parity.py``) pins each
    backend against the oracle, and the sweep cache stores summaries keyed
    by backend name + source fingerprint, so a divergent backend would
    poison cached results silently.
    """

    #: Registry name; doubles as the identity reported in results and keys.
    name: ClassVar[str]

    #: Human description of the trace form this backend walks, used in the
    #: trace-form mismatch error (e.g. ``"columnar (.packed)"``).
    trace_form: ClassVar[str]

    @abc.abstractmethod
    def consumes(self, trace: "Trace") -> bool:
        """Whether ``trace`` carries the form this backend can walk.

        The simulator checks this *before* dispatching and raises
        :class:`ValueError` on a mismatch — there is no silent fallback to
        another backend.
        """

    @abc.abstractmethod
    def run(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> "FrontendResult":
        """Simulate ``trace`` on ``simulator``; stats cover post-warmup."""


def _load_builtin_backends() -> None:
    """Import the built-in backend modules so their classes register."""
    import importlib

    for module in ("repro.backends.scalar", "repro.backends.reference"):
        importlib.import_module(module)


#: Registry of simulation backends (``scalar``, ``reference``, ... plus
#: anything user code registers).  Factories are the backend classes
#: themselves; :func:`get_backend` memoizes one instance per factory.
BACKEND_REGISTRY = Registry("backend", loader=_load_builtin_backends)

_instances: Dict[str, SimBackend] = {}


def get_backend(name: str) -> SimBackend:
    """Resolve a backend name to its (memoized) instance.

    Raises :class:`repro.registry.UnknownComponentError` for unknown names
    and :class:`TypeError` when a registered factory does not produce a
    :class:`SimBackend`.
    """
    factory = BACKEND_REGISTRY.get(name)
    cached = _instances.get(name)
    if cached is not None and type(cached) is factory:
        return cached
    backend = factory()
    if not isinstance(backend, SimBackend):
        raise TypeError(
            f"backend factory {name!r} produced {type(backend).__name__}, "
            "expected a SimBackend"
        )
    _instances[name] = backend
    return backend


def resolve_backend(backend: Union[str, SimBackend, None]) -> SimBackend:
    """Accept a registry name, a ready instance, or ``None`` (the default)."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, SimBackend):
        return backend
    return get_backend(backend)


def backend_names() -> List[str]:
    """Sorted names of every registered backend (built-ins included)."""
    return BACKEND_REGISTRY.names()

"""The ``SimBackend`` contract shared by the two simulation loops.

A *backend* is one implementation of the frontend simulation loop: it takes a
fully wired :class:`~repro.core.frontend.FrontendSimulator` (BPU, L1-I, LLC,
prefetcher, Confluence, config) plus a trace and produces a
:class:`~repro.core.frontend.FrontendResult`.  There are two:

* ``scalar`` — the zero-allocation columnar hot loop, the one
  :meth:`FrontendSimulator.run <repro.core.frontend.FrontendSimulator.run>`
  runs;
* ``reference`` — the record-view oracle loop, called directly by the parity
  tests and ``python -m repro bench``::

      ReferenceBackend().run(simulator, trace, warmup)

``scalar`` must be bit-exact with ``reference``: ``tests/test_frontend_parity.py``
compares ``dataclasses.asdict`` of both results, field for field.
"""

from __future__ import annotations

import abc
from typing import ClassVar, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.frontend import FrontendResult, FrontendSimulator
    from repro.workloads.trace import Trace


class SimBackend(abc.ABC):
    """One implementation of the frontend simulation loop.

    Backends are stateless: all mutable simulation state (caches, predictors,
    the in-flight prefetch table, the cycle counter) lives on the simulator,
    so one backend instance can serve any number of simulators.
    """

    #: The loop's name (``"scalar"`` or ``"reference"``).
    name: ClassVar[str]

    @abc.abstractmethod
    def run(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> "FrontendResult":
        """Simulate ``trace`` on ``simulator``; stats cover post-warmup."""

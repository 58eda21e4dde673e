"""The simulation loops.

``scalar`` is the zero-allocation columnar hot loop that every
:meth:`FrontendSimulator.run <repro.core.frontend.FrontendSimulator.run>`
executes; ``reference`` is the record-view oracle it is pinned against,
called directly by the parity tests and by ``python -m repro bench`` for its
comparison row.
"""

from repro.backends.base import SimBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.scalar import ScalarBackend

__all__ = [
    "ReferenceBackend",
    "ScalarBackend",
    "SimBackend",
]

"""Single home of the optional-numpy import dance.

The library has no required runtime dependencies; numpy is an accelerator.
Every consumer (the packed-trace reductions, the trace statistics walk)
imports :data:`np` from here instead of carrying its own
``try: import numpy`` block: the numpy module, or ``None`` when it is not
installed.  Consumers guard their vectorized path on ``np is not None`` and
keep a pure-python reference path.
"""

from __future__ import annotations

from typing import Any

__all__ = ["np"]

try:  # pragma: no cover - exercised indirectly where numpy is installed
    import numpy

    np: Any = numpy
except ImportError:  # pragma: no cover - the pure-python paths are the reference
    np = None

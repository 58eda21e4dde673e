"""Return address stack (RAS).

A fixed-capacity circular stack: calls push their return address, returns pop
the predicted target.  Overflow wraps around (overwriting the oldest entry)
and underflow returns ``None`` — both behaviours match hardware RAS designs
and matter for deeply layered server software.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Value snapshot of a :class:`ReturnAddressStack` (see its ``state``).
RASState = Tuple[int, Tuple[int, ...], int, int, int, int]


class ReturnAddressStack:
    """64-entry circular return address stack (Table 1)."""

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("RAS must have at least one entry")
        self.entries = entries
        self._stack: List[int] = []
        self.pushes = 0
        self.pops = 0
        self.underflows = 0
        self.overflows = 0

    def push(self, return_address: int) -> None:
        self.pushes += 1
        if len(self._stack) >= self.entries:
            # Circular overwrite: the oldest entry is lost.
            self.overflows += 1
            self._stack.pop(0)
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        self.pops += 1
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def peek(self) -> Optional[int]:
        if not self._stack:
            return None
        return self._stack[-1]

    @property
    def depth(self) -> int:
        return len(self._stack)

    def clear(self) -> None:
        self._stack.clear()

    def state(self) -> RASState:
        """Capacity, stacked addresses and counters, as a value."""
        return (
            self.entries,
            tuple(self._stack),
            self.pushes,
            self.pops,
            self.underflows,
            self.overflows,
        )

    def load_state(self, state: RASState) -> None:
        """Take over a :meth:`state` snapshot of a stack of this capacity."""
        entries, stack, self.pushes, self.pops, self.underflows, self.overflows = state
        if entries != self.entries:
            raise ValueError("return address stack state of a different capacity")
        self._stack[:] = stack

"""Indirect target cache.

A 1K-entry, direct-mapped cache of the most recent target of each indirect
branch (Table 1).  Return instructions are predicted by the RAS instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Value snapshot of an :class:`IndirectTargetCache` (see its ``state``).
IndirectState = Tuple[
    int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], int, int, int
]


class IndirectTargetCache:
    """Last-target predictor for indirect branches and indirect calls."""

    def __init__(self, entries: int = 1024) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("indirect target cache size must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._targets: Dict[int, int] = {}
        self._tags: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0
        self.correct = 0

    def _index(self, branch_pc: int) -> int:
        return (branch_pc >> 2) & self._mask

    def predict(self, branch_pc: int) -> Optional[int]:
        """Predicted target, or None when the entry belongs to another branch."""
        self.lookups += 1
        index = self._index(branch_pc)
        if self._tags.get(index) != branch_pc:
            return None
        self.hits += 1
        return self._targets.get(index)

    def update(self, branch_pc: int, target: int, predicted: Optional[int] = None) -> None:
        """Record the resolved target; optionally score the prediction."""
        if predicted is not None and predicted == target:
            self.correct += 1
        index = self._index(branch_pc)
        self._tags[index] = branch_pc
        self._targets[index] = target

    def state(self) -> IndirectState:
        """Capacity, tag and target entries and counters, as a value."""
        return (
            self.entries,
            tuple(self._tags.items()),
            tuple(self._targets.items()),
            self.lookups,
            self.hits,
            self.correct,
        )

    def load_state(self, state: IndirectState) -> None:
        """Take over a :meth:`state` snapshot of a cache of this capacity."""
        entries, tags, targets, self.lookups, self.hits, self.correct = state
        if entries != self.entries:
            raise ValueError("indirect target cache state of a different capacity")
        self._tags.clear()
        self._tags.update(tags)
        self._targets.clear()
        self._targets.update(targets)

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.correct / self.lookups

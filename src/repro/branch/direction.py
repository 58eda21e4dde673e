"""Conditional branch direction predictors.

The modelled core (Table 1) uses a hybrid predictor: a 16K-entry gshare, a
16K-entry bimodal table and a 16K-entry meta selector that picks between
them per branch.  All tables use 2-bit saturating counters.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

#: Value snapshot of a :class:`HybridDirectionPredictor` (see its ``state``).
DirectionState = Tuple[int, int, bytes, bytes, bytes, int, int]


class DirectionPredictor(Protocol):
    """Interface shared by all direction predictors."""

    def predict(self, branch_pc: int) -> bool:
        """Predict taken (True) or not taken (False) without updating state."""

    def update(self, branch_pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome."""


class _CounterTable:
    """A table of 2-bit saturating counters."""

    __slots__ = ("entries", "mask", "counters")

    def __init__(self, entries: int, initial: int = 2) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("counter table size must be a positive power of two")
        if not 0 <= initial <= 3:
            raise ValueError("2-bit counters take values 0..3")
        self.entries = entries
        self.mask = entries - 1
        self.counters: List[int] = [initial] * entries

    def value(self, index: int) -> int:
        return self.counters[index & self.mask]

    def is_taken(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def train(self, index: int, taken: bool) -> None:
        slot = index & self.mask
        counter = self.counters[slot]
        if taken:
            if counter < 3:
                self.counters[slot] = counter + 1
        elif counter > 0:
            self.counters[slot] = counter - 1


class BimodalPredictor:
    """PC-indexed table of 2-bit counters."""

    def __init__(self, entries: int = 16 * 1024) -> None:
        self._table = _CounterTable(entries)

    def _index(self, branch_pc: int) -> int:
        return branch_pc >> 2

    def predict(self, branch_pc: int) -> bool:
        return self._table.is_taken(self._index(branch_pc))

    def update(self, branch_pc: int, taken: bool) -> None:
        self._table.train(self._index(branch_pc), taken)


class GSharePredictor:
    """Global-history predictor: PC xor global history indexes the table."""

    def __init__(self, entries: int = 16 * 1024, history_bits: int = 12) -> None:
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self._table = _CounterTable(entries)
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._history = 0

    @property
    def history(self) -> int:
        return self._history

    def _index(self, branch_pc: int) -> int:
        return (branch_pc >> 2) ^ self._history

    def predict(self, branch_pc: int) -> bool:
        return self._table.is_taken(self._index(branch_pc))

    def update(self, branch_pc: int, taken: bool) -> None:
        self._table.train(self._index(branch_pc), taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class HybridDirectionPredictor:
    """gshare + bimodal with a meta selector (Table 1's hybrid predictor).

    The meta table learns, per branch, which component predicts better and
    uses it for future predictions.
    """

    def __init__(
        self,
        entries: int = 16 * 1024,
        history_bits: int = 12,
    ) -> None:
        self.gshare = GSharePredictor(entries, history_bits)
        self.bimodal = BimodalPredictor(entries)
        self._meta = _CounterTable(entries)
        self.predictions = 0
        self.mispredictions = 0

    def _meta_index(self, branch_pc: int) -> int:
        return branch_pc >> 2

    def predict(self, branch_pc: int) -> bool:
        use_gshare = self._meta.is_taken(self._meta_index(branch_pc))
        if use_gshare:
            return self.gshare.predict(branch_pc)
        return self.bimodal.predict(branch_pc)

    def update(self, branch_pc: int, taken: bool) -> None:
        gshare_correct = self.gshare.predict(branch_pc) == taken
        bimodal_correct = self.bimodal.predict(branch_pc) == taken
        predicted = self.predict(branch_pc)
        self.predictions += 1
        if predicted != taken:
            self.mispredictions += 1
        # The meta selector trains toward the component that was right.
        if gshare_correct != bimodal_correct:
            self._meta.train(self._meta_index(branch_pc), gshare_correct)
        self.gshare.update(branch_pc, taken)
        self.bimodal.update(branch_pc, taken)

    def state(self) -> DirectionState:
        """Everything that shapes later predictions and statistics, as a value:
        history length and register, the three counter tables, the counters."""
        return (
            self.gshare.history_bits,
            self.gshare._history,
            bytes(self.gshare._table.counters),
            bytes(self.bimodal._table.counters),
            bytes(self._meta.counters),
            self.predictions,
            self.mispredictions,
        )

    def load_state(self, state: DirectionState) -> None:
        """Take over a :meth:`state` snapshot of a predictor of this geometry
        (the three tables always share one size)."""
        history_bits, history, gshare, bimodal, meta, predictions, mispredictions = state
        if history_bits != self.gshare.history_bits or len(meta) != self._meta.entries:
            raise ValueError("direction predictor state of a different geometry")
        self.gshare._history = history
        self.gshare._table.counters[:] = gshare
        self.bimodal._table.counters[:] = bimodal
        self._meta.counters[:] = meta
        self.predictions = predictions
        self.mispredictions = mispredictions

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

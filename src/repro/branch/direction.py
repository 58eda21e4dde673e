"""Conditional branch direction predictors.

The modelled core (Table 1) uses a hybrid predictor: a 16K-entry gshare, a
16K-entry bimodal table and a 16K-entry meta selector that picks between
them per branch.  All tables use 2-bit saturating counters.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

from repro.staticcheck.markers import hot_loop

#: Value snapshot of a :class:`HybridDirectionPredictor` (see its ``state``).
DirectionState = Tuple[int, int, bytes, bytes, bytes, int, int]

#: A 2-bit saturating counter's next value, indexed by its value, after a
#: taken and after a not-taken outcome.
_TRAIN_TAKEN = (1, 2, 3, 3)
_TRAIN_NOT_TAKEN = (0, 0, 1, 2)


class DirectionPredictor(Protocol):
    """Interface shared by all direction predictors."""

    def predict(self, branch_pc: int) -> bool:
        """Predict taken (True) or not taken (False) without updating state."""

    def update(self, branch_pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome."""


class HybridDirectionPredictor:
    """gshare + bimodal with a meta selector (Table 1's hybrid predictor).

    The bimodal and meta tables are indexed by the branch PC, the gshare
    table by the PC xor the global history register.  The meta table
    learns, per branch, which component predicts better and uses it for
    future predictions.  The three tables share one power-of-two size, so
    one mask indexes all of them.
    """

    def __init__(
        self,
        entries: int = 16 * 1024,
        history_bits: int = 12,
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("counter table size must be a positive power of two")
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.history_bits = history_bits
        self.history = 0
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        # 2-bit saturating counters, each starting weakly taken.
        self._gshare_counters: List[int] = [2] * entries
        self._bimodal_counters: List[int] = [2] * entries
        self._meta_counters: List[int] = [2] * entries
        self.predictions = 0
        self.mispredictions = 0

    @hot_loop
    def predict(self, branch_pc: int) -> bool:
        slot = (branch_pc >> 2) & self._mask
        if self._meta_counters[slot] >= 2:  # the meta selector picks gshare
            gshare_slot = ((branch_pc >> 2) ^ self.history) & self._mask
            return self._gshare_counters[gshare_slot] >= 2
        return self._bimodal_counters[slot] >= 2

    @hot_loop
    def update(self, branch_pc: int, taken: bool) -> None:
        history = self.history
        slot = (branch_pc >> 2) & self._mask
        gshare_slot = ((branch_pc >> 2) ^ history) & self._mask
        gshare_counter = self._gshare_counters[gshare_slot]
        bimodal_counter = self._bimodal_counters[slot]
        meta_counter = self._meta_counters[slot]
        gshare_taken = gshare_counter >= 2
        bimodal_taken = bimodal_counter >= 2
        self.predictions += 1
        if (gshare_taken if meta_counter >= 2 else bimodal_taken) != taken:
            self.mispredictions += 1
        # The meta selector trains toward the component that was right.
        if gshare_taken != bimodal_taken:
            toward = _TRAIN_TAKEN if gshare_taken == taken else _TRAIN_NOT_TAKEN
            self._meta_counters[slot] = toward[meta_counter]
        toward = _TRAIN_TAKEN if taken else _TRAIN_NOT_TAKEN
        self._gshare_counters[gshare_slot] = toward[gshare_counter]
        self._bimodal_counters[slot] = toward[bimodal_counter]
        self.history = ((history << 1) | int(taken)) & self._history_mask

    def state(self) -> DirectionState:
        """Everything that shapes later predictions and statistics, as a value:
        history length and register, the three counter tables, the counters."""
        return (
            self.history_bits,
            self.history,
            bytes(self._gshare_counters),
            bytes(self._bimodal_counters),
            bytes(self._meta_counters),
            self.predictions,
            self.mispredictions,
        )

    def load_state(self, state: DirectionState) -> None:
        """Take over a :meth:`state` snapshot of a predictor of this geometry
        (the three tables always share one size)."""
        history_bits, history, gshare, bimodal, meta, predictions, mispredictions = state
        if history_bits != self.history_bits or len(meta) != len(self._meta_counters):
            raise ValueError("direction predictor state of a different geometry")
        self.history = history
        self._gshare_counters[:] = gshare
        self._bimodal_counters[:] = bimodal
        self._meta_counters[:] = meta
        self.predictions = predictions
        self.mispredictions = mispredictions

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

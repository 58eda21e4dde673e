"""Branch prediction unit: direction predictor + BTB + RAS + indirect cache.

The unit produces one fetch-region prediction per cycle (Table 1).  For a
trace-driven simulation it is driven with the resolved branch of each fetch
region: :meth:`predict` produces what the hardware would have predicted and
:meth:`resolve` trains all components with the actual outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.branch.btb_base import BaseBTB, BTBLookupResult
from repro.branch.direction import HybridDirectionPredictor
from repro.branch.indirect import IndirectTargetCache
from repro.branch.ras import ReturnAddressStack
from repro.isa.instruction import BranchKind
from repro.workloads.trace import FetchRecord


class PredictionSlot:
    """Mutable, reusable scratch holding one region's BTB lookup outcome.

    The ``scalar`` simulation loop owns exactly one slot and has the BTB
    write into it every region through
    :meth:`~repro.branch.btb_base.BaseBTB.lookup_into`, the allocation-free
    twin of :meth:`~repro.branch.btb_base.BaseBTB.lookup`.  Field meanings
    mirror :class:`~repro.branch.btb_base.BTBLookupResult` exactly; the
    parity suite pins the equivalence.  (The direction, RAS and indirect
    predictions the loop combines them with come from the trace's
    :mod:`repro.branch.columns`.)
    """

    __slots__ = ("btb_hit", "btb_target", "btb_latency_cycles", "btb_level")

    def __init__(self) -> None:
        self.set_btb(False, None, 0, "none")

    def set_btb(
        self, hit: bool, target: Optional[int], latency_cycles: int, level: str
    ) -> None:
        """Record one BTB lookup outcome (the ``lookup_into`` write point)."""
        self.btb_hit = hit
        self.btb_target = target
        self.btb_latency_cycles = latency_cycles
        self.btb_level = level


@dataclass(frozen=True)
class BranchPrediction:
    """What the branch prediction unit predicted for one fetch region."""

    btb_result: BTBLookupResult
    predicted_taken: bool
    predicted_target: Optional[int]
    actual_taken: bool
    actual_target: int

    @property
    def btb_hit(self) -> bool:
        return self.btb_result.hit

    @property
    def direction_correct(self) -> bool:
        return self.predicted_taken == self.actual_taken

    @property
    def target_correct(self) -> bool:
        """Did the unit steer fetch to the right next address?"""
        if not self.direction_correct:
            return False
        if not self.actual_taken:
            return True
        return self.predicted_target == self.actual_target

    @property
    def misfetch(self) -> bool:
        """A predicted-taken branch whose target the BTB could not supply.

        Misfetches are a *BTB supply* problem discovered in the first decode
        stage: fetch was steered (the direction predictor said taken, and it
        was right) but to a missing or wrong target.  Direction
        mispredictions are deliberately excluded — a predicted-not-taken
        branch falls through at fetch regardless of what the BTB holds, and
        its taken outcome is only discovered at execute, paying the (much
        larger) direction-misprediction penalty instead.
        """
        if not (self.actual_taken and self.predicted_taken):
            return False
        return not self.btb_hit or self.predicted_target != self.actual_target

    @property
    def direction_mispredicted(self) -> bool:
        """The direction predictor steered fetch the wrong way (execute-time
        flush; mutually exclusive with :attr:`misfetch` by construction)."""
        return not self.direction_correct


class BranchPredictionUnit:
    """Direction predictor, BTB, return address stack and indirect cache."""

    def __init__(
        self,
        btb: BaseBTB,
        direction: Optional[HybridDirectionPredictor] = None,
        ras: Optional[ReturnAddressStack] = None,
        indirect: Optional[IndirectTargetCache] = None,
    ) -> None:
        self.btb = btb
        self.direction = direction or HybridDirectionPredictor()
        self.ras = ras or ReturnAddressStack()
        self.indirect = indirect or IndirectTargetCache()
        self.predictions = 0
        self.misfetches = 0
        self.direction_mispredictions = 0

    def predict(self, record: FetchRecord) -> BranchPrediction:
        """Predict the outcome of the fetch region's terminating branch."""
        return self.predict_region(
            record.branch_pc,
            record.kind,
            record.taken,
            record.next_pc,
            record.fallthrough,
        )

    def predict_region(
        self,
        branch_pc: Optional[int],
        kind: Optional[BranchKind],
        taken: bool,
        next_pc: int,
        fallthrough: int,
    ) -> BranchPrediction:
        """Record-free :meth:`predict` (``fallthrough`` is the address
        following the terminating branch, or the region end when there is no
        branch).  :func:`repro.branch.columns.build_branch_columns` makes the
        same direction, RAS and indirect calls, in the same order."""
        self.predictions += 1
        if branch_pc is None:
            result = BTBLookupResult(False, None, 0, "none")
            return BranchPrediction(result, False, next_pc, False, next_pc)

        result = self.btb.lookup(branch_pc, taken=taken)

        if kind is BranchKind.CONDITIONAL:
            predicted_taken = self.direction.predict(branch_pc)
        else:
            predicted_taken = True

        predicted_target: Optional[int]
        if not predicted_taken:
            predicted_target = fallthrough
        elif kind is BranchKind.RETURN:
            predicted_target = self.ras.peek()
        elif kind is not None and kind.is_indirect:
            predicted_target = self.indirect.predict(branch_pc)
        else:
            predicted_target = result.target

        prediction = BranchPrediction(
            btb_result=result,
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
            actual_taken=taken,
            actual_target=next_pc,
        )
        if prediction.misfetch:
            self.misfetches += 1
        if not prediction.direction_correct:
            self.direction_mispredictions += 1
        return prediction

    def resolve(self, record: FetchRecord) -> None:
        """Train every component with the resolved branch."""
        self.resolve_region(
            record.branch_pc,
            record.kind,
            record.taken,
            record.target,
            record.next_pc,
            record.fallthrough,
        )

    def resolve_region(
        self,
        branch_pc: Optional[int],
        kind: Optional[BranchKind],
        taken: bool,
        target: Optional[int],
        next_pc: int,
        fallthrough: int,
    ) -> None:
        """Record-free :meth:`resolve` (mirrored, minus the BTB update, by
        :func:`repro.branch.columns.build_branch_columns`)."""
        if branch_pc is None:
            return
        if kind is BranchKind.CONDITIONAL:
            self.direction.update(branch_pc, taken)
        if kind is not None and kind.is_call:
            self.ras.push(fallthrough)
        if kind is BranchKind.RETURN:
            self.ras.pop()
        if kind is not None and kind.is_indirect and kind is not BranchKind.RETURN:
            self.indirect.update(branch_pc, next_pc)
        self.btb.update(branch_pc, kind, target, taken)

"""Fetch-directed prefetching (FDP).

FDP [Reinman, Calder & Austin, 1999] decouples the branch prediction unit
from the fetch unit with a queue of predicted fetch regions (six basic blocks
in the paper's configuration) and prefetches the instruction blocks on the
predicted path that are not already in the L1-I.

Its two structural limitations, which Section 2.1 of the paper quantifies,
fall out of this model directly:

* lookahead is bounded by the fetch queue depth (a handful of cycles), far
  less than the LLC round trip, so prefetches are rarely fully timely, and
* the predicted path is only useful while every intervening prediction is
  correct; the runahead stops at the first branch the unit would mispredict
  or miss in the BTB, so effective lookahead shrinks further.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List

from repro.isa.instruction import BLOCK_SIZE_BYTES, BranchKind
from repro.prefetch.base import InstructionPrefetcher, PrefetchContext
from repro.registry import PREFETCHER_REGISTRY, BuildContext
from repro.workloads.packed import NO_VALUE, PackedTrace

if TYPE_CHECKING:  # import cycle guard: frontend wiring imports both sides
    from repro.branch.columns import BranchColumns
    from repro.branch.unit import BranchPredictionUnit


class FetchDirectedPrefetcher(InstructionPrefetcher):
    """Branch-predictor-directed prefetcher with bounded lookahead."""

    name = "fdp"

    def __init__(self, queue_depth_basic_blocks: int = 6) -> None:
        super().__init__()
        if queue_depth_basic_blocks <= 0:
            raise ValueError("fetch queue depth must be positive")
        self.queue_depth = queue_depth_basic_blocks
        # The branch prediction unit produces one fetch region per cycle, so
        # the prefetcher can run at most one cycle per queued basic block
        # ahead of the fetch unit (Section 2.1's lookahead limitation).
        self.max_lead_cycles = queue_depth_basic_blocks
        self.runahead_stops_on_misprediction = 0
        self.runahead_stops_on_btb_miss = 0

    def prefetch_targets(self, context: PrefetchContext) -> Iterable[int]:
        """Prefetch the blocks of the next few correctly-predicted regions."""
        bpu = context.bpu
        if bpu is None:
            return []
        if context.packed is not None and context.columns is not None:
            targets = self._targets_packed(
                context, bpu, context.packed, context.columns
            )
        else:
            targets = self._targets_records(context, bpu)
        self.issued_prefetches += len(targets)
        return targets

    def _targets_records(
        self, context: PrefetchContext, bpu: "BranchPredictionUnit"
    ) -> List[int]:
        targets: List[int] = []
        records = context.records
        limit = min(len(records), context.index + 1 + self.queue_depth)
        for position in range(context.index + 1, limit):
            record = records[position]
            # The runahead path stays on the correct path only while the
            # prediction for each intervening branch would have been correct.
            previous = records[position - 1]
            if previous.branch_pc is not None:
                if previous.kind is BranchKind.CONDITIONAL:
                    predicted_taken = bpu.direction.predict(previous.branch_pc)
                    if predicted_taken != previous.taken:
                        self.runahead_stops_on_misprediction += 1
                        break
                if previous.is_taken_branch and not self._btb_has(bpu, previous.branch_pc):
                    self.runahead_stops_on_btb_miss += 1
                    break
            for block in record.blocks():
                if not context.l1i.contains(block) and block not in targets:
                    targets.append(block)
        return targets

    def _targets_packed(
        self,
        context: PrefetchContext,
        bpu: "BranchPredictionUnit",
        packed: PackedTrace,
        columns: "BranchColumns",
    ) -> List[int]:
        """Columnar runahead: same walk, straight off the packed columns.

        The direction predictor is not consulted: the trace's stop column
        says where, for this queue depth, it first mispredicts.
        """
        targets: List[int] = []
        branch_pcs = packed.branch_pcs
        takens = packed.takens
        block_firsts = packed.block_firsts
        block_counts = packed.block_counts
        l1i = context.l1i
        index = context.index
        mispredicted = index + columns.runahead_stops(packed, self.queue_depth)[index]
        limit = min(len(packed), index + 1 + self.queue_depth)
        for position in range(index + 1, limit):
            previous = position - 1
            if previous == mispredicted:
                self.runahead_stops_on_misprediction += 1
                break
            branch_pc = branch_pcs[previous]
            if (
                branch_pc != NO_VALUE
                and takens[previous]
                and not self._btb_has(bpu, branch_pc)
            ):
                self.runahead_stops_on_btb_miss += 1
                break
            first = block_firsts[position]
            stop = first + block_counts[position] * BLOCK_SIZE_BYTES
            for block in range(first, stop, BLOCK_SIZE_BYTES):
                if not l1i.contains(block) and block not in targets:
                    targets.append(block)
        return targets

    @staticmethod
    def _btb_has(bpu: "BranchPredictionUnit", branch_pc: int) -> bool:
        """Non-destructive BTB presence check for the runahead path."""
        btb = bpu.btb
        peek = getattr(btb, "peek_hit", None)
        if peek is not None:
            return bool(peek(branch_pc))
        return True

    @property
    def storage_kb(self) -> float:
        """FDP reuses existing branch predictor metadata (no extra storage)."""
        return 0.0


@PREFETCHER_REGISTRY.register("fdp")
def _build_fdp(ctx: BuildContext, **params: Any) -> FetchDirectedPrefetcher:
    return FetchDirectedPrefetcher(**params)

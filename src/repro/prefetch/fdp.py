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

The packed path is incremental.  FDP listens to the L1-I it serves (the
:meth:`~repro.caches.l1i.InstructionCache.add_listener` hook Confluence
uses, and only to that one) and keeps the set of blocks of its window,
the regions ``index+1 .. index+depth``, that the L1-I lacks: per call one
region leaves the window and one enters, and fills and evictions update
the set as they happen.  A call whose set is empty has nothing to fetch
and returns at once, touching neither the stop column, the BTB nor the
L1-I; any other call walks the window as the record path does, so targets
and their order are exact.  A call that is not the direct successor of
the previous one on the same trace and L1-I (a new run, warm reuse, a
hand-made context) rebuilds the window first.  The record path (the
``reference`` oracle's) always walks.  FDP holds the L1-I it serves only
through a weak reference: that L1-I already holds FDP as a listener, and
a strong reference back would make the design a cycle that only the
garbage collector frees.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set

from repro.isa.instruction import BLOCK_SIZE_BYTES, BranchKind
from repro.prefetch.base import InstructionPrefetcher, PrefetchContext
from repro.registry import PREFETCHER_REGISTRY, BuildContext, check_count
from repro.staticcheck.markers import hot_loop
from repro.workloads.packed import NO_VALUE, PackedTrace

if TYPE_CHECKING:  # import cycle guard: frontend wiring imports both sides
    from repro.branch.columns import BranchColumns
    from repro.branch.unit import BranchPredictionUnit
    from repro.caches.l1i import InstructionCache


class FetchDirectedPrefetcher(InstructionPrefetcher):
    """Branch-predictor-directed prefetcher with bounded lookahead."""

    name = "fdp"

    def __init__(self, queue_depth_basic_blocks: int = 6) -> None:
        super().__init__()
        depth = queue_depth_basic_blocks
        check_count("fetch queue depth", depth, 1)
        self.queue_depth = depth
        # The branch prediction unit produces one fetch region per cycle, so
        # the prefetcher can run at most one cycle per queued basic block
        # ahead of the fetch unit (Section 2.1's lookahead limitation).
        self.max_lead_cycles = depth
        # The packed path's window (see the module doc): a weak reference
        # to the L1-I it listens to, each window block's count of window
        # regions holding it, the window blocks that L1-I lacks, and the
        # call the window was last moved to (trace and region index).
        self._l1i: Optional["weakref.ref[InstructionCache]"] = None
        self._blocks: Dict[int, int] = {}
        self._absent: Set[int] = set()
        self._packed: Optional[PackedTrace] = None
        self._index = -1

    def on_block_fill(self, block_addr: int, demand: bool) -> None:
        """The L1-I now holds ``block_addr``: it is no longer missing."""
        self._absent.discard(block_addr)

    def on_block_evict(self, block_addr: int) -> None:
        """The L1-I lost ``block_addr``: missing again if in the window."""
        if block_addr in self._blocks:
            self._absent.add(block_addr)

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
                        break
                if previous.is_taken_branch and not bpu.btb.peek_hit(previous.branch_pc):
                    break
            for block in record.blocks():
                if not context.l1i.contains(block) and block not in targets:
                    targets.append(block)
        return targets

    @hot_loop
    def _targets_packed(
        self,
        context: PrefetchContext,
        bpu: "BranchPredictionUnit",
        packed: PackedTrace,
        columns: "BranchColumns",
    ) -> List[int]:
        """Columnar runahead: same walk, straight off the packed columns.

        The direction predictor is not consulted: the trace's stop column
        says where, for this queue depth, it first mispredicts.  The walk
        runs only while the window holds a block the L1-I lacks (see the
        module doc), and reads residency from the window's set of those.
        """
        block_firsts = packed.block_firsts
        block_counts = packed.block_counts
        l1i = context.l1i
        index = context.index
        depth = self.queue_depth
        limit = min(len(block_firsts), index + 1 + depth)
        served = self._l1i() if self._l1i is not None else None
        if l1i is not served:
            if served is not None:
                served.remove_listener(self)
            l1i.add_listener(self)
            self._l1i = weakref.ref(l1i)
            self._packed = None
        blocks = self._blocks
        absent = self._absent
        if packed is self._packed and index == self._index + 1:
            # Slide one region: ``index`` leaves the window, ``index+depth``
            # enters it.
            first = block_firsts[index]
            stop = first + block_counts[index] * BLOCK_SIZE_BYTES
            for block in range(first, stop, BLOCK_SIZE_BYTES):
                count = blocks[block] - 1
                if count:
                    blocks[block] = count
                else:
                    del blocks[block]
                    absent.discard(block)
            entering = index + depth
        else:
            blocks.clear()
            absent.clear()
            self._packed = packed
            entering = index + 1
        self._index = index
        for position in range(entering, limit):
            first = block_firsts[position]
            stop = first + block_counts[position] * BLOCK_SIZE_BYTES
            for block in range(first, stop, BLOCK_SIZE_BYTES):
                count = blocks.get(block, 0)
                if not count and not l1i.contains(block):
                    absent.add(block)
                blocks[block] = count + 1
        if not absent:
            return []

        targets: List[int] = []
        branch_pcs = packed.branch_pcs
        takens = packed.takens
        mispredicted = index + columns.runahead_stops(packed, depth)[index]
        for position in range(index + 1, limit):
            previous = position - 1
            if previous == mispredicted:
                break
            branch_pc = branch_pcs[previous]
            if (
                branch_pc != NO_VALUE
                and takens[previous]
                and not bpu.btb.peek_hit(branch_pc)
            ):
                break
            first = block_firsts[position]
            stop = first + block_counts[position] * BLOCK_SIZE_BYTES
            for block in range(first, stop, BLOCK_SIZE_BYTES):
                if block in absent and block not in targets:
                    targets.append(block)
        return targets


@PREFETCHER_REGISTRY.register("fdp")
def _build_fdp(ctx: BuildContext, **params: Any) -> FetchDirectedPrefetcher:
    return FetchDirectedPrefetcher(**params)

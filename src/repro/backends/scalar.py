"""The ``scalar`` backend: zero-allocation columnar hot loop.

This is the simulation path: :meth:`repro.core.frontend.FrontendSimulator.run`
always runs it.  It walks the trace's packed structure-of-arrays form
directly — no :class:`~repro.workloads.trace.FetchRecord` objects, no
per-region allocation — reads the design-invariant branch predictions from
the trace's :mod:`repro.branch.columns`, and is pinned bit-exact against the
``reference`` oracle by the parity suite.  The loop body is covered by
staticcheck rule R001 through the ``@hot_loop`` marker: comprehensions,
container displays and constructor calls inside the loop are build errors,
not review comments.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.backends.base import SimBackend
from repro.branch.columns import USE_BTB, columns_for
from repro.branch.unit import PredictionSlot
from repro.core.frontend import FrontendResult
from repro.isa.instruction import BLOCK_SIZE_BYTES
from repro.prefetch.base import NullPrefetcher, PrefetchContext
from repro.staticcheck.markers import hot_loop
from repro.workloads.packed import KIND_CODES, NO_VALUE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.frontend import FrontendSimulator
    from repro.workloads.trace import Trace


class ScalarBackend(SimBackend):
    """Columnar fast loop: one pass over the packed arrays, no records."""

    name = "scalar"

    @hot_loop
    def run(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> FrontendResult:
        """Simulate ``trace``; statistics cover the post-warmup portion.

        Bit-identical to the ``reference`` backend, with two differences in
        how the work is done.  The design-invariant predictors (direction,
        RAS, indirect cache) are read from the trace's branch columns
        (:func:`~repro.branch.columns.columns_for`), so the loop calls only
        what depends on the design: the BTB's ``lookup_into``/``update``,
        the L1-I, the LLC and the prefetcher.  And the loop is
        *allocation-free*: one reusable
        :class:`~repro.branch.unit.PredictionSlot` receives every BTB lookup,
        a single :class:`~repro.prefetch.base.PrefetchContext` is mutated per
        iteration instead of constructed, and designs with no prefetcher
        (plain :class:`~repro.prefetch.base.NullPrefetcher`) or a perfect
        L1-I skip the corresponding machinery entirely.
        """
        packed = trace.packed
        records = trace.records  # lazy view, handed to custom prefetchers
        total = len(packed)
        warmup_boundary = int(total * warmup)
        result = FrontendResult(design=simulator.design_name, workload=trace.name)

        config = simulator.config
        base_cpi = config.base_cpi
        misfetch_penalty = config.misfetch_penalty_cycles
        direction_penalty = config.direction_mispredict_penalty_cycles
        llc_latency = simulator.llc.round_trip_latency_cycles
        demand_penalty = (
            simulator.confluence.demand_fill_penalty_cycles
            if simulator.confluence is not None
            else 0
        )
        perfect = simulator.perfect_l1i
        bpu = simulator.bpu
        columns = columns_for(bpu, packed)
        predicted_takens = columns.predicted_takens
        target_hits = columns.target_hits
        lookup_into = bpu.btb.lookup_into
        btb_update = bpu.btb.update
        l1i = simulator.l1i
        l1i_access = l1i.access
        l1i_fill = l1i.fill
        l1i_contains = l1i.contains
        llc_fetch = simulator.llc.fetch_instruction_block
        prefetcher = simulator.prefetcher
        prefetch_targets = prefetcher.prefetch_targets
        max_lead = prefetcher.max_lead_cycles
        inflight = simulator._inflight
        cycle = simulator._cycle
        misfetches = 0

        # The one BTB scratch the whole loop writes into, and — for designs
        # that prefetch at all — the one context the prefetcher sees
        # (index/cycle/demand_miss_block are rewritten per iteration).  A
        # plain NullPrefetcher never observes anything, so its designs skip
        # the context and the target loop altogether (a subclass overriding
        # ``prefetch_targets`` still gets called).
        slot = PredictionSlot()
        null_prefetch = type(prefetcher) is NullPrefetcher
        context = None if null_prefetch else PrefetchContext(
            records=records,
            index=0,
            cycle=0,
            l1i=l1i,
            bpu=bpu,
            demand_miss_block=None,
            packed=packed,
            columns=columns,
        )

        instruction_counts = packed.instruction_counts
        branch_pcs = packed.branch_pcs
        kinds = packed.kinds
        takens = packed.takens
        target_col = packed.targets
        next_pcs = packed.next_pcs
        block_firsts = packed.block_firsts
        block_counts = packed.block_counts
        block_size = BLOCK_SIZE_BYTES
        kind_table = KIND_CODES

        for index in range(total):
            count = instruction_counts[index]
            branch_pc = branch_pcs[index]
            has_branch = branch_pc != NO_VALUE

            # --- branch prediction ------------------------------------------
            taken = False
            btb_hit = False
            btb_bubble = 0
            second_level = False
            misfetch = False
            direction_miss = False
            if has_branch:
                taken = takens[index] != 0
                lookup_into(slot, branch_pc, taken)
                btb_hit = slot.btb_hit
                if btb_hit and slot.btb_latency_cycles > 1:
                    btb_bubble = slot.btb_latency_cycles - 1
                second_level = slot.btb_level == "l2"
                if (predicted_takens[index] != 0) != taken:
                    direction_miss = True
                elif taken:
                    # Fetch was steered the right way; decode catches a
                    # missing or wrong target (RAS/indirect, else the BTB's).
                    hit = target_hits[index]
                    misfetch = not btb_hit or (
                        slot.btb_target != next_pcs[index] if hit == USE_BTB
                        else hit == 0
                    )
                    misfetches += misfetch

            # --- instruction fetch ------------------------------------------
            fetch_stall = 0
            demand_miss_block: Optional[int] = None
            prefetch_hits = 0
            misses = 0
            accesses = block_counts[index]
            if not perfect:
                first = block_firsts[index]
                stop = first + accesses * block_size
                for block in range(first, stop, block_size):
                    if l1i_access(block):
                        if inflight:
                            ready = inflight.pop(block, None)
                            if ready is not None:
                                remaining = max(0.0, ready - cycle)
                                if max_lead is not None:
                                    remaining = max(remaining, llc_latency - max_lead)
                                fetch_stall += int(round(remaining))
                                prefetch_hits += 1
                        continue
                    misses += 1
                    demand_miss_block = block if demand_miss_block is None else demand_miss_block
                    fetch_stall += llc_latency + demand_penalty
                    llc_fetch(block)
                    l1i_fill(block, demand=True)

            # --- cycle accounting -------------------------------------------
            cycle += count * base_cpi
            if misfetch:
                cycle += misfetch_penalty
            if direction_miss:
                cycle += direction_penalty
            cycle += btb_bubble + fetch_stall

            # --- prefetching ------------------------------------------------
            issued = 0
            if not null_prefetch:
                context.index = index
                context.cycle = cycle
                context.demand_miss_block = demand_miss_block
                for target in prefetch_targets(context):
                    if perfect:
                        break
                    if l1i_contains(target) or target in inflight:
                        continue
                    inflight[target] = cycle + llc_latency
                    llc_fetch(target)
                    l1i_fill(target, demand=False)
                    issued += 1

            # --- resolution / training (the BTB; the rest is in columns) ----
            if has_branch:
                # A branch may still carry no kind (records are permitted to);
                # the -1 sentinel must decode to None, never wrap the table.
                code = kinds[index]
                raw_target = target_col[index]
                btb_update(
                    branch_pc,
                    kind_table[code] if code >= 0 else None,
                    raw_target if raw_target != NO_VALUE else None,
                    taken,
                )

            if index < warmup_boundary:
                continue
            result.instructions += count
            result.fetch_regions += 1
            result.base_cycles += count * base_cpi
            result.misfetch_stall_cycles += misfetch_penalty if misfetch else 0
            result.direction_stall_cycles += direction_penalty if direction_miss else 0
            result.btb_latency_stall_cycles += btb_bubble
            result.l1i_stall_cycles += fetch_stall
            result.misfetches += int(misfetch)
            if taken:
                result.btb_taken_lookups += 1
                if not btb_hit:
                    result.btb_taken_misses += 1
            if second_level:
                result.second_level_accesses += 1
            result.l1i_accesses += accesses
            result.l1i_misses += misses
            result.l1i_prefetch_hits += prefetch_hits
            # A branchless region can never report a direction misprediction
            # (the stall charge above uses the same predicate).
            result.direction_mispredictions += int(direction_miss)
            result.prefetches_issued += issued

        bpu.predictions += total
        bpu.misfetches += misfetches
        bpu.direction_mispredictions += columns.direction_mispredictions
        columns.settle(bpu)
        simulator._cycle = cycle
        simulator._finalize(result)
        return result

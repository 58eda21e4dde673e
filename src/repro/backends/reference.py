"""The ``reference`` backend: record-view oracle loop.

This is the original per-record simulation path, kept as the bit-exact
parity oracle for the ``scalar`` loop.  It deliberately trades speed for
legibility: each region is a :class:`~repro.workloads.trace.FetchRecord`,
each prediction is a fresh object from ``bpu.predict``, and each region
constructs its own :class:`~repro.prefetch.base.PrefetchContext`.  No
simulation path runs it: the parity tests and ``python -m repro bench``
call it directly (``ReferenceBackend().run(simulator, trace, warmup)``).
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.backends.base import SimBackend
from repro.core.frontend import FrontendResult
from repro.prefetch.base import PrefetchContext
from repro.workloads.trace import FetchRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.frontend import FrontendSimulator
    from repro.workloads.trace import Trace


class ReferenceBackend(SimBackend):
    """Record-at-a-time oracle loop (slow, legible, the parity anchor)."""

    name = "reference"

    def run(
        self, simulator: "FrontendSimulator", trace: "Trace", warmup: float
    ) -> FrontendResult:
        records = trace.records
        warmup_boundary = int(len(records) * warmup)
        result = FrontendResult(design=simulator.design_name, workload=trace.name)
        llc_latency = simulator.llc.round_trip_latency_cycles

        for index, record in enumerate(records):
            measured = index >= warmup_boundary
            _simulate_region(
                simulator, records, index, record, llc_latency, result, measured
            )

        simulator._finalize(result)
        return result


def _simulate_region(
    simulator: "FrontendSimulator",
    records: Sequence[FetchRecord],
    index: int,
    record: FetchRecord,
    llc_latency: int,
    result: FrontendResult,
    measured: bool,
) -> None:
    config = simulator.config

    # --- branch prediction -------------------------------------------------
    prediction = simulator.bpu.predict(record)
    btb_result = prediction.btb_result
    btb_bubble = 0
    if btb_result.hit and btb_result.latency_cycles > 1:
        btb_bubble = btb_result.latency_cycles - 1
    # Misfetches (BTB could not supply a predicted-taken target; caught at
    # decode) and direction mispredictions (wrong steer; caught at
    # execute) are disjoint by construction: a misfetch requires the
    # direction prediction to be correct.
    misfetch = prediction.misfetch
    direction_miss = (
        not prediction.direction_correct and record.branch_pc is not None
    )

    # --- instruction fetch -------------------------------------------------
    fetch_stall = 0
    demand_miss_block: Optional[int] = None
    prefetch_hits = 0
    misses = 0
    accesses = 0
    for block in record.blocks():
        accesses += 1
        if simulator.perfect_l1i:
            continue
        if simulator.l1i.access(block):
            ready = simulator._inflight.pop(block, None)
            if ready is not None:
                # The block was installed by a prefetch that is still in
                # flight; only the remaining latency (if any) is exposed.
                remaining = max(0.0, ready - simulator._cycle)
                max_lead = simulator.prefetcher.max_lead_cycles
                if max_lead is not None:
                    # Prefetchers with bounded lookahead (FDP) can hide at
                    # most ``max_lead`` cycles of the round trip.
                    remaining = max(remaining, llc_latency - max_lead)
                fetch_stall += int(round(remaining))
                prefetch_hits += 1
            continue
        misses += 1
        demand_miss_block = block if demand_miss_block is None else demand_miss_block
        stall = llc_latency
        if simulator.confluence is not None:
            stall += simulator.confluence.demand_fill_penalty_cycles
        fetch_stall += stall
        simulator.llc.fetch_instruction_block(block)
        simulator.l1i.fill(block, demand=True)

    # --- cycle accounting --------------------------------------------------
    simulator._cycle += record.instruction_count * config.base_cpi
    if misfetch:
        simulator._cycle += config.misfetch_penalty_cycles
    if direction_miss:
        simulator._cycle += config.direction_mispredict_penalty_cycles
    simulator._cycle += btb_bubble + fetch_stall

    # --- prefetching -------------------------------------------------------
    context = PrefetchContext(
        records=records,
        index=index,
        cycle=simulator._cycle,
        l1i=simulator.l1i,
        bpu=simulator.bpu,
        demand_miss_block=demand_miss_block,
    )
    issued = 0
    for target in simulator.prefetcher.prefetch_targets(context):
        if simulator.perfect_l1i:
            break
        if simulator.l1i.contains(target) or target in simulator._inflight:
            continue
        # The block (and, under Confluence, its predecoded branch entries)
        # is installed now; its *use* before the LLC round trip completes
        # still pays the remaining latency through the in-flight table.
        simulator._inflight[target] = simulator._cycle + llc_latency
        simulator.llc.fetch_instruction_block(target)
        simulator.l1i.fill(target, demand=False)
        issued += 1

    # --- resolution / training ---------------------------------------------
    simulator.bpu.resolve(record)

    if not measured:
        return
    result.instructions += record.instruction_count
    result.fetch_regions += 1
    result.base_cycles += record.instruction_count * config.base_cpi
    result.misfetch_stall_cycles += config.misfetch_penalty_cycles if misfetch else 0
    result.direction_stall_cycles += (
        config.direction_mispredict_penalty_cycles if direction_miss else 0
    )
    result.btb_latency_stall_cycles += btb_bubble
    result.l1i_stall_cycles += fetch_stall
    result.misfetches += int(misfetch)
    if record.is_taken_branch:
        result.btb_taken_lookups += 1
        if not btb_result.hit:
            result.btb_taken_misses += 1
    if btb_result.level in ("l2",):
        result.second_level_accesses += 1
    result.l1i_accesses += accesses
    result.l1i_misses += misses
    result.l1i_prefetch_hits += prefetch_hits
    # Same guarded predicate as the stall charge above: a region without
    # a branch cannot be a direction misprediction, whatever the
    # prediction object's unguarded flag says.
    result.direction_mispredictions += int(direction_miss)
    result.prefetches_issued += issued

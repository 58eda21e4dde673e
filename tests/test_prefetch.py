"""Tests for the FDP and SHIFT instruction prefetchers."""

import pytest

from repro.branch import BranchPredictionUnit, PerfectBTB, ConventionalBTB
from repro.caches.l1i import InstructionCache
from repro.caches.llc import SharedLLC
from repro.core import design_from_spec
from repro.core.area import SHIFT_PER_CORE_MM2
from repro.prefetch import (
    FetchDirectedPrefetcher,
    NullPrefetcher,
    PrefetchContext,
    ShiftConfig,
    ShiftHistory,
    ShiftPrefetcher,
)
from repro.isa.instruction import BranchKind
from repro.workloads.trace import FetchRecord


def _chain_records(count=10, start=0x1000, region_bytes=0x100):
    """A simple chain of taken unconditional branches across blocks."""
    records = []
    for index in range(count):
        pc = start + index * region_bytes
        target = start + (index + 1) * region_bytes
        records.append(
            FetchRecord(start=pc, instruction_count=4, branch_pc=pc + 12,
                        kind=BranchKind.UNCONDITIONAL, taken=True,
                        target=target, next_pc=target)
        )
    return records


def _resident_chain_context(*l1is):
    """The chain's packed FDP context on ``l1is[0]``, with a trained perfect
    BTB and every chain block resident in each of ``l1is``."""
    from repro.branch.columns import trace_columns
    from repro.workloads.trace import Trace

    records = _chain_records()
    trace = Trace(records, name="chain")
    bpu = BranchPredictionUnit(PerfectBTB())
    for record in records:
        bpu.resolve(record)
        for block in record.blocks():
            for l1i in l1is:
                l1i.fill(block)
    context = PrefetchContext(
        records=records, index=0, cycle=0, l1i=l1is[0], bpu=bpu,
        packed=trace.packed, columns=trace_columns(trace.packed),
    )
    return records, context


class TestNullPrefetcher:
    def test_returns_nothing(self):
        records = _chain_records()
        context = PrefetchContext(records=records, index=0, cycle=0, l1i=InstructionCache())
        assert NullPrefetcher().prefetch_targets(context) == []


class TestFDP:
    def test_prefetches_future_blocks_on_predicted_path(self):
        records = _chain_records()
        bpu = BranchPredictionUnit(PerfectBTB())
        for record in records:
            bpu.resolve(record)
        fdp = FetchDirectedPrefetcher(queue_depth_basic_blocks=4)
        context = PrefetchContext(records=records, index=0, cycle=0,
                                  l1i=InstructionCache(), bpu=bpu)
        targets = list(fdp.prefetch_targets(context))
        assert targets  # future blocks along the chain
        assert all(target % 64 == 0 for target in targets)
        assert fdp.issued_prefetches == len(targets)

    def test_runahead_stops_at_btb_miss(self):
        records = _chain_records()
        bpu = BranchPredictionUnit(ConventionalBTB(entries=64))  # untrained: all misses
        fdp = FetchDirectedPrefetcher(queue_depth_basic_blocks=6)
        context = PrefetchContext(records=records, index=0, cycle=0,
                                  l1i=InstructionCache(), bpu=bpu)
        targets = list(fdp.prefetch_targets(context))
        assert targets == []

    def test_lookahead_bounded_by_queue_depth(self):
        records = _chain_records(count=20)
        bpu = BranchPredictionUnit(PerfectBTB())
        for record in records:
            bpu.resolve(record)
        fdp = FetchDirectedPrefetcher(queue_depth_basic_blocks=3)
        context = PrefetchContext(records=records, index=0, cycle=0,
                                  l1i=InstructionCache(), bpu=bpu)
        targets = list(fdp.prefetch_targets(context))
        assert len(targets) <= 3 * 2  # at most queue-depth regions' blocks

    def test_max_lead_matches_queue_depth(self):
        fdp = FetchDirectedPrefetcher(queue_depth_basic_blocks=6)
        assert fdp.max_lead_cycles == 6

    def test_no_bpu_means_no_prefetches(self):
        records = _chain_records()
        fdp = FetchDirectedPrefetcher()
        context = PrefetchContext(records=records, index=0, cycle=0, l1i=InstructionCache())
        assert list(fdp.prefetch_targets(context)) == []

    def test_invalid_queue_depth_rejected(self):
        # A float used to fail only inside the first run's stop-column
        # build, and True built a depth-1 queue.
        for depth in (6.0, True, 0, -1):
            with pytest.raises(ValueError, match=f"got {depth!r}$"):
                FetchDirectedPrefetcher(queue_depth_basic_blocks=depth)

    def test_packed_call_walks_only_when_a_window_block_is_missing(self, monkeypatch):
        # Every block of the window (regions 1..4) is in the L1-I: the call
        # returns at once, with no BTB peek and no stop-column read (the full
        # walk would make 4 peeks and 1 read).  Once an eviction takes one
        # window block out, the next call walks and fetches exactly it.
        from repro.branch.columns import BranchColumns

        l1i = InstructionCache()
        records, context = _resident_chain_context(l1i)
        peeks, reads = [], []
        peek_hit = context.bpu.btb.peek_hit
        runahead_stops = BranchColumns.runahead_stops
        monkeypatch.setattr(
            context.bpu.btb, "peek_hit", lambda pc: peeks.append(pc) or peek_hit(pc)
        )
        monkeypatch.setattr(
            BranchColumns, "runahead_stops",
            lambda self, packed, depth: reads.append(depth)
            or runahead_stops(self, packed, depth),
        )
        fdp = FetchDirectedPrefetcher(queue_depth_basic_blocks=4)
        assert fdp.prefetch_targets(context) == []
        assert (peeks, reads) == ([], [])

        missing = records[3].blocks()[0]
        assert l1i.invalidate(missing)
        context.index = 1
        assert fdp.prefetch_targets(context) == [missing]
        assert peeks and reads == [4]

    def test_events_from_an_l1i_fdp_no_longer_serves_are_ignored(self):
        old, new = InstructionCache(), InstructionCache()
        records, context = _resident_chain_context(old, new)
        fdp = FetchDirectedPrefetcher(queue_depth_basic_blocks=4)
        assert fdp.prefetch_targets(context) == []
        context.l1i, context.index = new, 1
        assert fdp.prefetch_targets(context) == []
        old.invalidate(records[3].blocks()[0])  # not the cache FDP serves now
        context.index = 2
        assert fdp.prefetch_targets(context) == []


class TestShiftHistory:
    def test_record_and_lookup(self):
        history = ShiftHistory(ShiftConfig(history_entries=16))
        for block in (0x0, 0x40, 0x80):
            history.record(block)
        position = history.lookup(0x40)
        assert position is not None
        assert history.read_stream(position, 4) == [0x80]

    def test_lookup_unknown_block(self):
        history = ShiftHistory(ShiftConfig(history_entries=16))
        assert history.lookup(0x1234_0000) is None

    def test_circular_overwrite_updates_index(self):
        history = ShiftHistory(ShiftConfig(history_entries=4))
        for block in range(0, 8 * 64, 64):
            history.record(block)
        # The first blocks have been overwritten and must no longer resolve.
        assert history.lookup(0x0) is None
        assert history.lookup(7 * 64) is not None

    def test_read_stream_does_not_cross_head(self):
        history = ShiftHistory(ShiftConfig(history_entries=8))
        for block in (0x0, 0x40, 0x80):
            history.record(block)
        position = history.lookup(0x80)
        assert history.read_stream(position, 4) == []

    def test_llc_virtualization_reserves_blocks(self):
        llc = SharedLLC()
        history = ShiftHistory(ShiftConfig(history_entries=1024), llc=llc)
        assert llc.reserved_blocks > 0
        for block in range(0, 64 * 64, 64):
            history.record(block)
        assert llc.metadata_writes >= 1

    def test_storage_estimates(self):
        config = ShiftConfig()
        assert config.history_storage_kb > 100

    @pytest.mark.parametrize(
        "field, value, minimum",
        [
            # history_entries=0 used to crash the first record() with an
            # IndexError; a zero or negative read-ahead built a SHIFT that
            # never prefetched; True and 6.0 passed as counts.
            ("history_entries", 0, 1),
            ("history_entries", True, 1),
            ("read_ahead_degree", 0, 1),
            ("read_ahead_degree", -3, 1),
            ("read_ahead_degree", True, 1),
            ("divergence_threshold", -1, 0),
            ("divergence_threshold", 1.0, 0),
        ],
    )
    def test_invalid_counts_rejected(self, field, value, minimum):
        with pytest.raises(
            ValueError, match=f"^{field} must be an int >= {minimum}, got {value!r}$"
        ):
            ShiftConfig(**{field: value})

    def test_boundary_counts_accepted(self):
        config = ShiftConfig(
            history_entries=1, read_ahead_degree=1, divergence_threshold=0,
        )
        history = ShiftHistory(config)
        history.record(0x40)
        history.record(0x80)
        assert history.lookup(0x80) == 0


class TestHistoryOverwrite:
    """record() on a full circular buffer: the overwritten slot's
    index-drop bookkeeping."""

    def test_record_drops_index_entry_of_overwritten_slot(self):
        history = ShiftHistory(ShiftConfig(history_entries=4))
        blocks = [0x0, 0x40, 0x80, 0xC0]
        for block in blocks:
            history.record(block)
        history.record(0x100)  # overwrites slot 0 (0x0), whose index points there
        assert history.lookup(0x0) is None
        assert len(history._index) == 4  # the history bounds the index
        for block in (0x40, 0x80, 0xC0, 0x100):
            assert history.lookup(block) is not None

    def test_record_keeps_stale_index_of_rerecorded_block(self):
        # 0x0 recurs later in the buffer: overwriting its *old* slot must not
        # drop the index entry pointing at the newer occurrence.
        history = ShiftHistory(ShiftConfig(history_entries=4))
        for block in (0x0, 0x40, 0x0, 0x80):
            history.record(block)
        history.record(0xC0)  # overwrites slot 0, but index[0x0] == 2
        assert history.lookup(0x0) == 2

    def test_record_overwriting_slot_with_same_block_keeps_index(self):
        history = ShiftHistory(ShiftConfig(history_entries=2))
        for block in (0x0, 0x40, 0x0):  # third record overwrites slot 0 with 0x0
            history.record(block)
        assert history.lookup(0x0) == 0
        assert history.lookup(0x40) == 1


class TestShiftPrefetcher:
    def _context(self, records, index, l1i, miss_block=None):
        return PrefetchContext(records=records, index=index, cycle=index,
                               l1i=l1i, demand_miss_block=miss_block)

    def test_recurring_stream_is_replayed(self):
        # More distinct blocks than the 512-block L1-I, traversed twice: the
        # second pass misses and must be covered by replaying the history.
        records = _chain_records(count=600) * 2
        history = ShiftHistory(ShiftConfig(history_entries=4096, read_ahead_degree=8))
        prefetcher = ShiftPrefetcher(history)
        l1i = InstructionCache()
        issued = []
        for index, record in enumerate(records):
            miss = record.blocks()[0] if not l1i.contains(record.start) else None
            targets = list(prefetcher.prefetch_targets(self._context(records, index, l1i, miss)))
            issued.extend(targets)
            for block in record.blocks():
                l1i.fill(block)
        # During the second pass the prefetcher must have predicted upcoming blocks.
        assert prefetcher.streams_started >= 1
        assert prefetcher.stream_confirmations > 0
        assert len(issued) > 0

    def test_non_recording_core_does_not_write_history(self):
        records = _chain_records(count=4)
        history = ShiftHistory(ShiftConfig(history_entries=64))
        prefetcher = ShiftPrefetcher(history, record_history=False)
        l1i = InstructionCache()
        for index, record in enumerate(records):
            prefetcher.prefetch_targets(self._context(records, index, l1i, record.blocks()[0]))
        assert history.records == 0

    def test_shared_history_serves_other_cores(self):
        records = _chain_records(count=12)
        history = ShiftHistory(ShiftConfig(history_entries=256, read_ahead_degree=8))
        recorder = ShiftPrefetcher(history, record_history=True)
        consumer = ShiftPrefetcher(history, record_history=False)
        l1i = InstructionCache()
        for index in range(len(records)):
            recorder.prefetch_targets(self._context(records, index, l1i, None))
        targets = list(
            consumer.prefetch_targets(self._context(records, 0, l1i, records[0].blocks()[0]))
        )
        assert targets  # consumer replays the recorder's history

    def test_divergence_reanchors_stream(self):
        records = _chain_records(count=8)
        history = ShiftHistory(ShiftConfig(history_entries=256, read_ahead_degree=4,
                                           divergence_threshold=1))
        prefetcher = ShiftPrefetcher(history, config=history.config)
        l1i = InstructionCache()
        for index in range(len(records)):
            prefetcher.prefetch_targets(self._context(records, index, l1i, None))
        # Misses on blocks unrelated to the recorded chain force re-anchoring
        # attempts (which fail: those blocks have no history).
        other = _chain_records(count=4, start=0x9000_0000)
        for index, record in enumerate(other):
            prefetcher.prefetch_targets(self._context(other, index, l1i, record.blocks()[0]))
        assert prefetcher.streams_started <= 2

    def test_no_dedicated_storage(self, tiny_program):
        # History and index live in the LLC: a SHIFT design prices its BTB
        # and SHIFT's fixed per-core share, and nothing for the prefetcher.
        _, area = design_from_spec("2level_shift", tiny_program)
        assert set(area.components_mm2) == {"btb", "shift"}
        assert area.components_mm2["shift"] == SHIFT_PER_CORE_MM2

"""Tests for direction predictors, RAS, indirect cache and BTB designs."""

import pytest

from repro.branch import (
    BranchPredictionUnit,
    ConventionalBTB,
    HybridDirectionPredictor,
    IndirectTargetCache,
    PerfectBTB,
    PhantomBTB,
    ReturnAddressStack,
    TwoLevelBTB,
)
from repro.branch.btb_base import BTBEntry
from repro.branch.btb_conventional import conventional_entry_bits
from repro.caches.llc import SharedLLC
from repro.isa.instruction import BranchKind
from repro.registry import build_btb
from repro.workloads.trace import FetchRecord


def _record(pc=0x1000, branch_pc=0x100C, kind=BranchKind.CONDITIONAL, taken=True,
            target=0x2000, next_pc=0x2000, count=4):
    return FetchRecord(
        start=pc, instruction_count=count, branch_pc=branch_pc, kind=kind,
        taken=taken, target=target, next_pc=next_pc,
    )


class TestDirectionPredictors:
    def test_hybrid_learns_bias(self):
        predictor = HybridDirectionPredictor(entries=1024)
        for _ in range(4):
            predictor.update(0x4000, True)
        assert predictor.predict(0x4000)
        for _ in range(4):
            predictor.update(0x4000, False)
        assert not predictor.predict(0x4000)

    def test_hybrid_history_advances(self):
        predictor = HybridDirectionPredictor(entries=1024, history_bits=4)
        assert predictor.history == 0
        predictor.update(0x4000, True)
        predictor.update(0x4004, False)
        assert predictor.history == 0b10

    def test_hybrid_learns_pattern(self):
        predictor = HybridDirectionPredictor(entries=4096, history_bits=4)
        # Alternating branch: gshare should learn it via history correlation.
        for i in range(200):
            predictor.update(0x4000, i % 2 == 0)
        correct = 0
        for i in range(200, 240):
            if predictor.predict(0x4000) == (i % 2 == 0):
                correct += 1
            predictor.update(0x4000, i % 2 == 0)
        assert correct >= 30

    def test_hybrid_tracks_accuracy(self):
        predictor = HybridDirectionPredictor(entries=1024)
        for _ in range(100):
            predictor.update(0x4000, True)
        assert predictor.predict(0x4000)
        assert predictor.predictions == 100
        assert predictor.misprediction_rate < 0.2

    def test_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HybridDirectionPredictor(entries=1000)


class TestReturnAddressStack:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(entries=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(entries=2)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(entries=2)
        for address in (1, 2, 3):
            ras.push(address)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack()
        ras.push(0x500)
        assert ras.peek() == 0x500
        assert ras.depth == 1


class TestIndirectTargetCache:
    def test_learns_last_target(self):
        cache = IndirectTargetCache(entries=64)
        assert cache.predict(0x4000) is None
        cache.update(0x4000, 0x9000)
        assert cache.predict(0x4000) == 0x9000

    def test_tag_mismatch_returns_none(self):
        cache = IndirectTargetCache(entries=4)
        cache.update(0x4000, 0x9000)
        aliased = 0x4000 + 4 * 4  # same index, different tag
        assert cache.predict(aliased) is None

    def test_accuracy_tracking(self):
        cache = IndirectTargetCache(entries=64)
        cache.update(0x4000, 0x9000)
        predicted = cache.predict(0x4000)
        cache.update(0x4000, 0x9000, predicted=predicted)
        assert cache.accuracy > 0


class TestConventionalBTB:
    def test_miss_then_hit_after_update(self):
        btb = ConventionalBTB(entries=64)
        assert not btb.lookup(0x4000).hit
        btb.update(0x4000, BranchKind.CONDITIONAL, 0x5000, taken=True)
        result = btb.lookup(0x4000)
        assert result.hit and result.target == 0x5000

    def test_not_taken_conditionals_not_allocated(self):
        btb = ConventionalBTB(entries=64)
        btb.update(0x4000, BranchKind.CONDITIONAL, 0x5000, taken=False)
        assert not btb.lookup(0x4000).hit

    def test_unconditional_always_allocated(self):
        btb = ConventionalBTB(entries=64)
        btb.update(0x4000, BranchKind.RETURN, None, taken=True)
        assert btb.lookup(0x4000).hit

    def test_victim_buffer_catches_evictions(self):
        small = ConventionalBTB(entries=4, ways=1, victim_entries=4)
        # Fill one set beyond capacity; evicted entries land in the victim buffer.
        pcs = [0x4000 + i * 4 * 4 for i in range(3)]
        for pc in pcs:
            small.update(pc, BranchKind.UNCONDITIONAL, pc + 0x100, taken=True)
        assert small.lookup(pcs[0]).hit  # served by victim buffer or main
        assert small.stats.taken_misses == 0

    def test_capacity_behaviour(self):
        btb = ConventionalBTB(entries=16, ways=4)
        for i in range(64):
            btb.update(0x4000 + i * 4, BranchKind.UNCONDITIONAL, 0x5000, taken=True)
        hits = sum(btb.lookup(0x4000 + i * 4).hit for i in range(64))
        assert hits <= 16 + btb.victim_entries

    def test_stats_track_taken_misses_only_for_taken(self):
        btb = ConventionalBTB(entries=64)
        btb.lookup(0x4000, taken=True)
        btb.lookup(0x4004, taken=False)
        assert btb.stats.taken_misses == 1
        assert btb.stats.not_taken_misses == 1

    def test_storage_scales_with_entries(self):
        small = ConventionalBTB(entries=1024, victim_entries=64)
        big = ConventionalBTB(entries=16 * 1024)
        assert 8 < small.storage_kb < 12          # paper: ~9.9 KB
        assert 120 < big.storage_kb < 160         # paper: ~140 KB

    def test_entry_bits_reasonable(self):
        assert 60 < conventional_entry_bits(1024) < 90

    def test_peek_hit_does_not_touch_stats(self):
        btb = ConventionalBTB(entries=64)
        btb.update(0x4000, BranchKind.UNCONDITIONAL, 0x5000, taken=True)
        lookups_before = btb.stats.lookups
        assert btb.peek_hit(0x4000)
        assert not btb.peek_hit(0x4100)
        assert btb.stats.lookups == lookups_before


class TestPerfectBTB:
    def test_never_misses_after_update(self):
        btb = PerfectBTB()
        btb.update(0x4000, BranchKind.CONDITIONAL, 0x5000, taken=True)
        assert btb.lookup(0x4000).hit
        assert btb.storage_kb == float("inf")


class TestTwoLevelBTB:
    def test_l2_serves_l1_misses_with_latency(self):
        btb = TwoLevelBTB(l1_entries=4, l2_entries=64, ways=1)
        pcs = [0x4000 + i * 4 * 4 for i in range(8)]
        for pc in pcs:
            btb.update(pc, BranchKind.UNCONDITIONAL, pc + 0x100, taken=True)
        result = btb.lookup(pcs[0])
        assert result.hit
        assert result.level == "l2"
        assert result.latency_cycles == btb.l2_latency_cycles
        # The reactive fill promotes the entry into the first level.
        assert btb.lookup(pcs[0]).level == "l1"

    def test_stats_count_second_level_accesses(self):
        btb = TwoLevelBTB(l1_entries=4, l2_entries=64, ways=1)
        pcs = [0x4000 + i * 4 * 4 for i in range(8)]
        for pc in pcs:
            btb.update(pc, BranchKind.UNCONDITIONAL, pc + 0x100, taken=True)
        btb.lookup(pcs[0])
        assert btb.stats.second_level_accesses >= 1


class TestPhantomBTB:
    def _trained_phantom(self, llc=None):
        btb = PhantomBTB(l1_entries=8, ways=1, prefetch_buffer_entries=8,
                         entries_per_group=2, group_capacity=16, llc=llc)
        # Create consecutive misses in the same 32-instruction region so they
        # form a temporal group.
        pcs = [0x4000, 0x4010, 0x4200, 0x4210, 0x4400, 0x4410]
        for pc in pcs:
            btb.lookup(pc, taken=True)
            btb.update(pc, BranchKind.UNCONDITIONAL, pc + 0x100, taken=True)
        return btb, pcs

    def test_groups_are_formed(self):
        btb, _ = self._trained_phantom()
        assert btb.group_writes >= 1

    def test_group_prefetch_after_delay(self):
        btb, pcs = self._trained_phantom()
        # Evict everything from the tiny L1 by inserting many other entries.
        for i in range(64):
            btb.update(0x8000 + i * 4, BranchKind.UNCONDITIONAL, 0x9000, taken=True)
        # First miss in the region triggers the group fetch; it arrives at the
        # next miss, after which the group's other entry can hit.
        btb.lookup(pcs[0], taken=True)
        btb.lookup(0xA000, taken=True)  # unrelated miss lets the group arrive
        assert btb.group_fetches >= 1

    def test_llc_region_reserved_and_accessed(self):
        llc = SharedLLC()
        btb, _ = self._trained_phantom(llc=llc)
        assert llc.reserved_blocks >= btb.group_capacity
        assert llc.metadata_writes >= 1

    def test_dedicated_storage_close_to_baseline_btb(self):
        phantom = PhantomBTB()
        baseline = ConventionalBTB(entries=1024, victim_entries=64)
        assert abs(phantom.storage_kb - baseline.storage_kb) < 2.0


class TestStockBTBCounts:
    """Sizes and latencies of the stock BTBs go through ``check_count``."""

    @pytest.mark.parametrize(
        "name, field, value, minimum",
        [
            # ways=0 used to raise a bare ZeroDivisionError, and latency -3,
            # an L2 latency of 0 and entries=True were accepted.
            ("conventional", "entries", 0, 1),
            ("conventional", "entries", True, 1),
            ("conventional", "entries", 1024.0, 1),
            ("conventional", "ways", 0, 1),
            ("conventional", "latency_cycles", -3, 1),
            ("conventional", "victim_entries", -1, 0),
            ("conventional", "victim_entries", 64.0, 0),
            ("two_level", "l1_entries", 0, 1),
            ("two_level", "l2_entries", -4, 1),
            ("two_level", "ways", 0, 1),
            ("two_level", "l1_latency_cycles", 0, 1),
            ("two_level", "l2_latency_cycles", 0, 1),
            ("perfect", "latency_cycles", 0, 1),
            ("phantom", "l1_entries", 0, 1),
            ("phantom", "ways", False, 1),
            ("phantom", "prefetch_buffer_entries", 0, 1),
            ("phantom", "entries_per_group", 0, 1),
            ("phantom", "group_capacity", 0, 1),
            ("phantom", "l1_latency_cycles", -1, 1),
        ],
    )
    def test_invalid_counts_rejected(self, name, field, value, minimum):
        with pytest.raises(
            ValueError, match=f"^{field} must be an int >= {minimum}, got {value!r}$"
        ):
            build_btb(name, **{field: value})

    @pytest.mark.parametrize(
        "name, settings, field",
        [
            # The two-level and Phantom BTBs used to drop the remainder:
            # l1_entries=6 held 4 entries, l2_entries=16386 held 16,384 but
            # priced 16,386, and l2_entries=1030 failed on a power-of-two
            # set count instead.
            ("conventional", dict(entries=6), "entries"),
            ("two_level", dict(l1_entries=6), "l1_entries"),
            ("two_level", dict(l2_entries=16386), "l2_entries"),
            ("two_level", dict(l2_entries=1030), "l2_entries"),
            ("phantom", dict(l1_entries=6), "l1_entries"),
        ],
    )
    def test_entry_counts_fill_whole_sets(self, name, settings, field):
        with pytest.raises(
            ValueError, match=f"^{field} must be divisible by associativity, got "
        ):
            build_btb(name, ways=4, **settings)

    def test_phantom_without_an_llc_rejects_a_negative_group_capacity(self):
        # It used to be accepted, then the first group commit raised
        # KeyError('dictionary is empty').
        with pytest.raises(ValueError, match="^group_capacity must be an int >= 1"):
            PhantomBTB(group_capacity=-5)

    @pytest.mark.parametrize(
        "btb_class, settings",
        [
            (ConventionalBTB, dict(entries=1, ways=1, victim_entries=0, latency_cycles=1)),
            (TwoLevelBTB, dict(l1_entries=1, l2_entries=1, ways=1,
                               l1_latency_cycles=1, l2_latency_cycles=1)),
            (PerfectBTB, dict(latency_cycles=1)),
            (PhantomBTB, dict(l1_entries=1, ways=1, prefetch_buffer_entries=1,
                              entries_per_group=1, group_capacity=1, l1_latency_cycles=1)),
        ],
    )
    def test_smallest_counts_accepted(self, btb_class, settings):
        btb = btb_class(**settings)
        for pc in (0x4000, 0x4040, 0x4000):
            btb.lookup(pc, taken=True)
            btb.update(pc, BranchKind.UNCONDITIONAL, pc + 0x100, taken=True)
        result = btb.lookup(0x4000)
        assert result.hit and result.target == 0x4100


class TestEntryReuse:
    """An update that finds an equal entry resident keeps it (no new object)."""

    @pytest.fixture
    def entries_built(self, monkeypatch):
        built = {"count": 0}
        original = BTBEntry.__init__

        def counting(self, *args, **kwargs):
            built["count"] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(BTBEntry, "__init__", counting)
        return built

    @pytest.mark.parametrize(
        "btb_class", [ConventionalBTB, TwoLevelBTB, PerfectBTB, PhantomBTB]
    )
    def test_repeated_update_builds_one_entry(self, btb_class, entries_built):
        btb = btb_class()
        for _ in range(2):
            btb.update(0x4000, BranchKind.CONDITIONAL, 0x5000, taken=True)
        assert entries_built["count"] == 1
        assert btb.stats.insertions == 2
        btb.update(0x4000, BranchKind.CONDITIONAL, 0x6000, taken=True)
        assert entries_built["count"] == 2
        assert btb.stats.insertions == 3
        assert btb.lookup(0x4000).target == 0x6000

    @pytest.mark.parametrize(
        "btb_class", [ConventionalBTB, TwoLevelBTB, PerfectBTB, PhantomBTB]
    )
    def test_a_new_kind_builds_a_new_entry(self, btb_class, entries_built):
        btb = btb_class()
        btb.update(0x4000, BranchKind.CONDITIONAL, 0x5000, taken=True)
        btb.update(0x4000, BranchKind.UNCONDITIONAL, 0x5000, taken=True)
        assert entries_built["count"] == 2
        assert btb.lookup(0x4000).entry.kind is BranchKind.UNCONDITIONAL

    def test_reused_entry_still_refreshes_lru(self):
        # Four ways of one set: re-training the oldest entry must make the
        # next insertion evict the second oldest, as a fresh entry would.
        btb = ConventionalBTB(entries=4, ways=4)
        pcs = [0x4000 + i * 4 for i in range(4)]
        for pc in pcs:
            btb.update(pc, BranchKind.UNCONDITIONAL, pc + 0x100, taken=True)
        btb.update(pcs[0], BranchKind.UNCONDITIONAL, pcs[0] + 0x100, taken=True)
        btb.update(0x5000, BranchKind.UNCONDITIONAL, 0x5100, taken=True)
        assert btb.peek_hit(pcs[0])
        assert not btb.peek_hit(pcs[1])


class TestBranchPredictionUnit:
    def test_taken_branch_with_btb_hit_is_not_misfetch(self):
        bpu = BranchPredictionUnit(PerfectBTB())
        record = _record()
        bpu.resolve(record)   # trains direction + BTB
        for _ in range(3):
            bpu.resolve(record)
        prediction = bpu.predict(record)
        assert prediction.btb_hit
        assert not prediction.misfetch

    def test_btb_miss_on_taken_branch_is_misfetch(self):
        bpu = BranchPredictionUnit(ConventionalBTB(entries=64))
        prediction = bpu.predict(_record())
        assert prediction.misfetch
        assert bpu.misfetches == 1

    def test_returns_predicted_through_ras(self):
        bpu = BranchPredictionUnit(PerfectBTB())
        call = _record(branch_pc=0x100C, kind=BranchKind.CALL, target=0x8000, next_pc=0x8000)
        bpu.resolve(call)
        ret = _record(pc=0x8000, branch_pc=0x800C, kind=BranchKind.RETURN,
                      target=None, next_pc=call.fallthrough)
        bpu.resolve(ret)  # train BTB entry for the return
        bpu.resolve(call)
        prediction = bpu.predict(ret)
        assert prediction.predicted_target == call.fallthrough

    def test_indirect_branches_use_target_cache(self):
        bpu = BranchPredictionUnit(PerfectBTB())
        indirect = _record(branch_pc=0x100C, kind=BranchKind.INDIRECT, target=None, next_pc=0x9000)
        bpu.resolve(indirect)
        prediction = bpu.predict(indirect)
        assert prediction.predicted_target == 0x9000

    def test_non_branch_region_is_never_misfetch(self):
        bpu = BranchPredictionUnit(ConventionalBTB(entries=64))
        record = FetchRecord(start=0x1000, instruction_count=4, branch_pc=None,
                             kind=None, taken=False, target=None, next_pc=0x1010)
        prediction = bpu.predict(record)
        assert not prediction.misfetch
        assert prediction.predicted_target == record.next_pc

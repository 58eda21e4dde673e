"""Tests for AirBTB, Confluence, the frontend model, designs, area, metrics."""

import gc
import weakref

import pytest

from repro.branch import BranchPredictionUnit, ConventionalBTB
from repro.caches.l1i import InstructionCache, L1IConfig
from repro.caches.llc import SharedLLC
from repro.core import (
    AirBTB,
    AirBTBConfig,
    ChipMultiprocessor,
    Confluence,
    DESIGN_POINTS,
    FrontendConfig,
    FrontendSimulator,
    design_from_spec,
)
from repro.core.area import SHIFT_PER_CORE_MM2, area_report, sram_area_mm2
from repro.core.metrics import fraction_of_ideal, geometric_mean, miss_coverage, mpki
from repro.isa.instruction import BranchKind
from repro.isa.predecode import BranchDescriptor, PredecodedBlock, Predecoder
from repro.workloads.trace import FetchRecord, Trace


def _predecoded(base=0x4000, branch_offsets=(1, 4, 7)):
    """The predecoded block of conditional branches at ``branch_offsets``."""
    return PredecodedBlock(
        block_address=base,
        bitmap=sum(1 << offset for offset in branch_offsets),
        branches=tuple(
            BranchDescriptor(branch_pc=base + offset * 4, kind=BranchKind.CONDITIONAL,
                             target=base + 0x400, offset=offset)
            for offset in branch_offsets
        ),
    )


class TestAirBTBConfig:
    def test_default_matches_paper_storage(self):
        config = AirBTBConfig()
        assert 9.0 < config.storage_kb < 11.5  # paper: ~10.2 KB

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            AirBTBConfig(insertion_policy="magic")

    def test_bigger_bundles_cost_more(self):
        assert AirBTBConfig(branch_entries_per_bundle=4).storage_kb > AirBTBConfig().storage_kb

    @pytest.mark.parametrize(
        "field, value, minimum",
        [
            # ways=0 used to raise ZeroDivisionError, overflow_entries=-4
            # built no buffer yet priced below 0 entries, and latency -1,
            # True and 4.0 were accepted.
            ("bundles", 0, 1),
            ("bundles", 512.0, 1),
            ("ways", 0, 1),
            ("ways", True, 1),
            ("branch_entries_per_bundle", 0, 1),
            ("branch_entries_per_bundle", -1, 1),
            ("latency_cycles", 0, 1),
            ("latency_cycles", -1, 1),
            ("overflow_entries", -4, 0),
            ("overflow_entries", 4.0, 0),
            ("overflow_entries", False, 0),
        ],
    )
    def test_invalid_counts_rejected(self, field, value, minimum):
        with pytest.raises(
            ValueError, match=f"^{field} must be an int >= {minimum}, got {value!r}$"
        ):
            AirBTBConfig(**{field: value})

    def test_zero_overflow_entries_accepted(self):
        config = AirBTBConfig(overflow_entries=0)
        assert config.storage_kb < AirBTBConfig(overflow_entries=4).storage_kb
        assert AirBTB(config)._overflow is None


class TestAirBTB:
    def test_block_fill_installs_all_branches(self):
        airbtb = AirBTB()
        airbtb.on_block_fill(_predecoded())
        for offset in (1, 4, 7):
            assert airbtb.lookup(0x4000 + offset * 4).hit

    def test_eviction_removes_bundle(self):
        airbtb = AirBTB()
        airbtb.on_block_fill(_predecoded())
        airbtb.on_block_evict(0x4000)
        assert not airbtb.lookup(0x4004).hit
        assert airbtb.bundle_evictions == 1

    def test_overflowing_branches_go_to_overflow_buffer(self):
        airbtb = AirBTB(AirBTBConfig(branch_entries_per_bundle=3, overflow_entries=8))
        airbtb.on_block_fill(_predecoded(branch_offsets=(1, 3, 5, 7, 9)))
        hits = [airbtb.lookup(0x4000 + offset * 4) for offset in (1, 3, 5, 7, 9)]
        assert all(result.hit for result in hits)
        assert any(result.level == "overflow" for result in hits)
        assert airbtb.overflow_insertions == 2

    def test_without_overflow_buffer_excess_branches_miss(self):
        airbtb = AirBTB(AirBTBConfig(branch_entries_per_bundle=3, overflow_entries=0))
        airbtb.on_block_fill(_predecoded(branch_offsets=(1, 3, 5, 7, 9)))
        results = [airbtb.lookup(0x4000 + offset * 4).hit for offset in (1, 3, 5, 7, 9)]
        assert results.count(False) == 2

    def test_synchronized_mode_ignores_update_allocation(self):
        airbtb = AirBTB()
        airbtb.synchronized = True
        airbtb.update(0x4004, BranchKind.CONDITIONAL, 0x5000, taken=True)
        assert not airbtb.lookup(0x4004).hit

    def test_standalone_eager_mode_installs_whole_block(self, tiny_program):
        image = tiny_program.image
        block = next(b for b in image.values() if b.branch_count >= 2)
        airbtb = AirBTB(predecoder=Predecoder(image))
        branch = block.branches[0]
        airbtb.update(branch.branch_pc, branch.kind, branch.target, taken=True)
        other = block.branches[1]
        assert airbtb.lookup(other.branch_pc).hit
        assert airbtb.predecoder.blocks_scanned == 1

    def test_standalone_demand_mode_installs_single_entry(self, tiny_program):
        image = tiny_program.image
        block = next(b for b in image.values() if b.branch_count >= 2)
        airbtb = AirBTB(AirBTBConfig(insertion_policy="demand"), predecoder=Predecoder(image))
        branch = block.branches[0]
        airbtb.update(branch.branch_pc, branch.kind, branch.target, taken=True)
        assert airbtb.lookup(branch.branch_pc).hit
        assert not airbtb.lookup(block.branches[1].branch_pc).hit
        assert airbtb.predecoder.blocks_scanned == 0

    def test_peek_hit_matches_lookup(self):
        airbtb = AirBTB()
        airbtb.on_block_fill(_predecoded())
        assert airbtb.peek_hit(0x4004)
        assert not airbtb.peek_hit(0x4000)

    def test_resident_bundles_bounded_by_capacity(self):
        airbtb = AirBTB(AirBTBConfig(bundles=8, ways=4, overflow_entries=0))
        for index in range(32):
            airbtb.on_block_fill(_predecoded(base=0x4000 + index * 64, branch_offsets=(1,)))
        assert airbtb.resident_bundles <= 8


class TestConfluence:
    def test_l1i_fill_mirrors_into_airbtb(self, tiny_program):
        l1i = InstructionCache()
        confluence = Confluence(image=tiny_program.image, l1i=l1i, llc=SharedLLC())
        block = next(b for b in tiny_program.image.values() if b.branch_count >= 1)
        l1i.fill(block.block_address, demand=False)
        branch = block.branches[0]
        assert confluence.airbtb.lookup(branch.branch_pc).hit
        assert confluence.prefetch_predecodes == 1

    def test_l1i_eviction_mirrors_into_airbtb(self, tiny_program):
        l1i = InstructionCache(L1IConfig(size_bytes=64 * 8, associativity=1))
        confluence = Confluence(image=tiny_program.image, l1i=l1i)
        blocks = [b for b in tiny_program.image.values() if b.branch_count >= 1][:20]
        for block in blocks:
            l1i.fill(block.block_address)
        resident = set(l1i.resident_blocks())
        for block in blocks:
            hit = confluence.airbtb.lookup(block.branches[0].branch_pc).hit
            assert hit == (block.block_address in resident)

    def test_content_synchronization_invariant(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec("confluence", tiny_program)
        simulator.run(tiny_trace.head(3000))
        l1i_blocks = set(simulator.l1i.resident_blocks())
        airbtb = simulator.confluence.airbtb
        bundle_blocks = set(airbtb._bundles.keys())
        # Every bundle corresponds to a resident L1-I block (bundles may be
        # missing for resident blocks that contain no branches).
        assert bundle_blocks <= l1i_blocks

    def test_storage_is_airbtb_only(self, tiny_program):
        # The predecoder and SHIFT add no dedicated SRAM: Confluence is
        # priced as its AirBTB plus SHIFT's fixed per-core share.
        _, area = design_from_spec("confluence", tiny_program)
        assert area.components_mm2 == {
            "btb": sram_area_mm2(AirBTBConfig().storage_kb),
            "shift": SHIFT_PER_CORE_MM2,
        }


class TestFrontendSimulator:
    def test_ideal_design_has_no_l1i_stalls(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec("ideal", tiny_program)
        result = simulator.run(tiny_trace)
        assert result.l1i_stall_cycles == 0
        assert result.l1i_misses == 0

    def test_baseline_suffers_misses(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec("baseline", tiny_program)
        result = simulator.run(tiny_trace)
        assert result.l1i_misses > 0
        assert result.btb_taken_misses > 0
        assert result.cycles > result.base_cycles

    def test_results_account_post_warmup_only(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec("baseline", tiny_program)
        result = simulator.run(tiny_trace, warmup_fraction=0.5)
        assert result.fetch_regions == len(tiny_trace) - int(len(tiny_trace) * 0.5)

    def test_speedup_over_self_is_one(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec("baseline", tiny_program)
        result = simulator.run(tiny_trace)
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FrontendConfig(base_cpi=0)
        with pytest.raises(ValueError):
            FrontendConfig(warmup_fraction=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # A negative penalty took cycles off every misfetch or
            # misprediction; 2.5 and True passed as cycle counts.
            ("misfetch_penalty_cycles", -4),
            ("misfetch_penalty_cycles", 2.5),
            ("direction_mispredict_penalty_cycles", -12),
            ("direction_mispredict_penalty_cycles", True),
        ],
    )
    def test_invalid_penalties_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an int >= 0, got {value!r}$"):
            FrontendConfig(**{field: value})
        assert getattr(FrontendConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize("warmup", [1.0, 1.5, -0.5])
    def test_warmup_override_outside_unit_interval_rejected(
        self, tiny_program, tiny_trace, warmup
    ):
        # The override gets the config field's check: 1.0 would measure
        # nothing, and a negative share would measure the whole trace.
        simulator, _ = design_from_spec("baseline", tiny_program)
        with pytest.raises(ValueError, match="warmup_fraction"):
            simulator.run(tiny_trace, warmup_fraction=warmup)

    def test_config_has_no_fetch_queue_knob(self):
        # FDP's lookahead is its own queue_depth_basic_blocks parameter; a
        # config field nothing read only split the cell-key space.
        with pytest.raises(TypeError):
            FrontendConfig(fetch_queue_basic_blocks=4)

    def test_mpki_properties(self, tiny_program, tiny_trace):
        simulator, _ = design_from_spec("baseline", tiny_program)
        result = simulator.run(tiny_trace)
        assert result.btb_mpki == pytest.approx(
            1000 * result.btb_taken_misses / result.instructions
        )
        assert result.l1i_mpki == pytest.approx(1000 * result.l1i_misses / result.instructions)

    def test_prefetcher_reduces_l1i_stalls(self, small_program, small_trace):
        baseline, _ = design_from_spec("baseline", small_program)
        confluence, _ = design_from_spec("confluence", small_program)
        base_result = baseline.run(small_trace)
        conf_result = confluence.run(small_trace)
        assert conf_result.l1i_stall_cycles < base_result.l1i_stall_cycles

    def test_repeated_runs_start_clean(self, tiny_program, tiny_trace):
        # _finalize claims repeated run() calls start clean: both the
        # in-flight prefetch table AND the cycle counter must rewind (warm
        # caches/predictors intentionally persist across traces).
        sim_a, _ = design_from_spec("baseline", tiny_program)
        sim_b, _ = design_from_spec("baseline", tiny_program)
        first_a = sim_a.run(tiny_trace)
        first_b = sim_b.run(tiny_trace)
        assert first_a == first_b
        assert sim_a._cycle == 0.0
        assert sim_a._inflight == {}
        second_a = sim_a.run(tiny_trace)
        second_b = sim_b.run(tiny_trace)
        # Reuse is deterministic: two identically-warmed simulators agree.
        assert second_a == second_b
        assert second_a.instructions == first_a.instructions


class TestStallTaxonomy:
    """Pin the misfetch vs direction-misprediction stall accounting."""

    CONFIG = FrontendConfig(warmup_fraction=0.0)

    @staticmethod
    def _taken_conditional():
        return FetchRecord(start=0x1000, instruction_count=4, branch_pc=0x100C,
                           kind=BranchKind.CONDITIONAL, taken=True,
                           target=0x2000, next_pc=0x2000)

    @staticmethod
    def _not_taken_conditional():
        return FetchRecord(start=0x1000, instruction_count=4, branch_pc=0x100C,
                           kind=BranchKind.CONDITIONAL, taken=False,
                           target=0x2000, next_pc=0x1010)

    def _not_taken_biased_bpu(self):
        """A BPU holding a valid BTB entry but predicting not-taken."""
        bpu = BranchPredictionUnit(ConventionalBTB(entries=64))
        bpu.resolve(self._taken_conditional())  # installs the BTB entry
        for _ in range(6):
            bpu.resolve(self._not_taken_conditional())
        return bpu

    def test_taken_direction_miss_with_btb_entry_is_not_misfetch(self):
        bpu = self._not_taken_biased_bpu()
        prediction = bpu.predict(self._taken_conditional())
        assert prediction.btb_hit
        assert not prediction.predicted_taken  # predictor says not-taken
        assert not prediction.direction_correct
        assert not prediction.misfetch  # fetch fell through; decode saw nothing

    def test_taken_direction_miss_charges_direction_penalty(self):
        bpu = self._not_taken_biased_bpu()
        simulator = FrontendSimulator(bpu=bpu, perfect_l1i=True, config=self.CONFIG)
        result = simulator.run(Trace([self._taken_conditional()], name="dirmiss"))
        assert result.direction_mispredictions == 1
        assert result.direction_stall_cycles == self.CONFIG.direction_mispredict_penalty_cycles
        assert result.misfetches == 0
        assert result.misfetch_stall_cycles == 0

    def test_btb_miss_on_predicted_taken_branch_is_misfetch(self):
        # An unconditional branch is always predicted taken; a cold BTB
        # cannot supply its target, which is the decode-time misfetch case.
        record = FetchRecord(start=0x1000, instruction_count=4, branch_pc=0x100C,
                             kind=BranchKind.UNCONDITIONAL, taken=True,
                             target=0x2000, next_pc=0x2000)
        simulator = FrontendSimulator(
            bpu=BranchPredictionUnit(ConventionalBTB(entries=64)),
            perfect_l1i=True, config=self.CONFIG,
        )
        result = simulator.run(Trace([record], name="misfetch"))
        assert result.misfetches == 1
        assert result.misfetch_stall_cycles == self.CONFIG.misfetch_penalty_cycles
        assert result.direction_mispredictions == 0
        assert result.direction_stall_cycles == 0

    def test_stall_classes_are_disjoint(self):
        # Every region is charged at most one of the two redirect penalties.
        bpu = self._not_taken_biased_bpu()
        taken = self._taken_conditional()
        prediction = bpu.predict(taken)
        assert not (prediction.misfetch and not prediction.direction_correct)


class TestDesignPoints:
    def test_all_named_designs_build(self, tiny_program):
        for name in DESIGN_POINTS:
            simulator, area = design_from_spec(name, tiny_program)
            assert simulator.design_name == name
            assert area.total_mm2 >= 0

    def test_unknown_design_rejected(self, tiny_program):
        with pytest.raises(KeyError):
            design_from_spec("warp_drive", tiny_program)

    def test_confluence_design_wires_confluence(self, tiny_program):
        simulator, _ = design_from_spec("confluence", tiny_program)
        assert simulator.confluence is not None
        assert simulator.bpu.btb is simulator.confluence.airbtb
        assert simulator.prefetcher is simulator.confluence.prefetcher

    def test_two_level_design_has_larger_area_than_confluence(self, tiny_program):
        _, two_level_area = design_from_spec("2level_shift", tiny_program)
        _, confluence_area = design_from_spec("confluence", tiny_program)
        assert two_level_area.total_mm2 > confluence_area.total_mm2

    @pytest.mark.parametrize("name", list(DESIGN_POINTS))
    def test_every_design_is_freed_by_reference_counting(
        self, name, tiny_program, tiny_trace
    ):
        """No structure of a design refers back to its owner, so the design
        is freed when its last reference goes, without the cyclic collector."""
        gc.disable()
        try:
            simulator, _ = design_from_spec(name, tiny_program)
            simulator.run(tiny_trace)
            parts = (
                simulator, simulator.l1i, simulator.bpu.btb,
                simulator.prefetcher, simulator.confluence,
            )
            refs = [weakref.ref(part) for part in parts if part is not None]
            del simulator, parts
            assert [type(ref()).__name__ for ref in refs if ref() is not None] == []
        finally:
            gc.enable()


class TestAreaModel:
    def test_power_law_matches_paper_anchor_points(self):
        assert sram_area_mm2(9.9) == pytest.approx(0.08, rel=0.05)
        assert sram_area_mm2(140) == pytest.approx(0.6, rel=0.05)

    def test_zero_and_negative_storage(self):
        assert sram_area_mm2(0) == 0.0
        with pytest.raises(ValueError):
            sram_area_mm2(-1)

    def test_confluence_area_about_one_percent_of_core(self, tiny_program):
        _, area = design_from_spec("confluence", tiny_program)
        assert area.fraction_of_core < 0.03

    def test_two_level_area_much_larger(self, tiny_program):
        _, area = design_from_spec("2level_shift", tiny_program)
        assert area.fraction_of_core > 0.07

    def test_relative_area_to_baseline(self, tiny_program):
        _, baseline = design_from_spec("baseline", tiny_program)
        _, confluence = design_from_spec("confluence", tiny_program)
        relative = confluence.relative_to(baseline)
        assert 1.0 < relative < 1.03

    def test_report_composition(self):
        report = area_report("x", btb_storage_kb=10, shift_shared=True)
        assert report.components_mm2 == {
            "btb": sram_area_mm2(10),
            "shift": SHIFT_PER_CORE_MM2,
        }
        assert report.total_mm2 == pytest.approx(sum(report.components_mm2.values()))
        assert area_report("y").components_mm2 == {}


class TestMetrics:
    def test_mpki(self):
        assert mpki(50, 100_000) == pytest.approx(0.5)

    def test_mpki_rejects_degenerate_instruction_count(self):
        # A run that measured nothing is broken, not miss-free (the same
        # loud-failure policy as geometric_mean).
        with pytest.raises(ValueError, match="positive instruction count"):
            mpki(50, 0)
        with pytest.raises(ValueError, match="positive instruction count"):
            mpki(0, -3)

    def test_miss_coverage_signs(self):
        assert miss_coverage(100, 10) == pytest.approx(0.9)
        assert miss_coverage(100, 150) == pytest.approx(-0.5)

    def test_miss_coverage_rejects_missless_baseline(self):
        with pytest.raises(ValueError, match="positive baseline misses"):
            miss_coverage(0, 10)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_rejects_non_positive(self):
        # A zero speedup means a broken run; it must not be silently dropped.
        with pytest.raises(ValueError, match="non-positive"):
            geometric_mean([1.0, 0.0, 4.0])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    def test_fraction_of_ideal(self):
        assert fraction_of_ideal(1.30, 1.35) == pytest.approx(0.857, abs=0.01)
        assert fraction_of_ideal(1.1, 1.0) == 0.0


class TestChipMultiprocessor:
    def test_small_cmp_runs_and_aggregates(self, tiny_program):
        cmp_model = ChipMultiprocessor(tiny_program, cores=2, instructions_per_core=8_000)
        result = cmp_model.run_design("confluence")
        assert len(result.core_results) == 2
        assert result.instructions > 0
        assert result.ipc > 0
        assert result.area is not None

    def test_requires_positive_cores(self, tiny_program):
        with pytest.raises(ValueError):
            ChipMultiprocessor(tiny_program, cores=0)

    def test_unknown_design_rejected(self, tiny_program):
        cmp_model = ChipMultiprocessor(tiny_program, cores=1, instructions_per_core=5_000)
        with pytest.raises(KeyError):
            cmp_model.run_design("bogus")

    def test_speedup_between_cmp_results(self, small_program):
        cmp_model = ChipMultiprocessor(small_program, cores=1, instructions_per_core=30_000)
        baseline = cmp_model.run_design("baseline")
        ideal = cmp_model.run_design("ideal")
        assert ideal.speedup_over(baseline) > 1.0

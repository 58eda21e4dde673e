"""Integration tests: end-to-end design comparisons and experiment harnesses.

These assert the *shape* of the paper's headline results on a scaled-down
workload: design ordering, miss-coverage ordering and area ordering.
"""

import pytest

from repro.analysis import (
    airbtb_ablation,
    airbtb_sensitivity,
    branch_density_table,
    btb_capacity_sweep,
    frontend_comparison,
    miss_coverage_comparison,
)
from repro.analysis.experiments import performance_area_frontier, run_btb_coverage
from repro.analysis.reporting import format_series, format_table
from repro.branch import ConventionalBTB, PhantomBTB, TwoLevelBTB
from repro.core.airbtb import AirBTB


@pytest.fixture(scope="module")
def outcomes(small_program, small_trace):
    designs = ("baseline", "fdp", "2level_shift", "confluence", "ideal")
    return frontend_comparison(small_program, small_trace, designs)


class TestDesignOrdering:
    def test_ideal_is_best(self, outcomes):
        base = outcomes["baseline"].result
        ideal_speedup = outcomes["ideal"].result.speedup_over(base)
        for outcome in outcomes.values():
            assert outcome.result.speedup_over(base) <= ideal_speedup + 1e-9

    def test_confluence_beats_baseline_and_fdp(self, outcomes):
        base = outcomes["baseline"].result
        confluence = outcomes["confluence"].result.speedup_over(base)
        assert confluence > 1.0
        assert confluence > outcomes["fdp"].result.speedup_over(base)

    def test_confluence_at_least_matches_2level_shift(self, outcomes):
        base = outcomes["baseline"].result
        confluence = outcomes["confluence"].result.speedup_over(base)
        two_level = outcomes["2level_shift"].result.speedup_over(base)
        assert confluence >= two_level * 0.97

    def test_confluence_area_far_below_two_level(self, outcomes):
        assert outcomes["confluence"].area.total_mm2 < 0.5 * outcomes["2level_shift"].area.total_mm2

    def test_frontier_rows_normalised_to_baseline(self, outcomes):
        rows = performance_area_frontier(outcomes)
        baseline_row = next(row for row in rows if row["design"] == "baseline")
        assert baseline_row["relative_performance"] == pytest.approx(1.0)
        assert baseline_row["relative_area"] == pytest.approx(1.0)


class TestBTBCapacitySweep:
    def test_mpki_decreases_with_capacity(self, small_trace):
        series = btb_capacity_sweep(small_trace, capacities=(1024, 4096, 16384))
        assert series[1024] >= series[4096] >= series[16384]
        assert series[1024] > 0

    def test_large_btb_captures_working_set(self, small_trace):
        series = btb_capacity_sweep(small_trace, capacities=(1024, 32768))
        assert series[32768] < 0.25 * series[1024]


class TestMissCoverage:
    def test_airbtb_beats_phantom_and_approaches_16k(self, small_program, small_trace):
        coverage = miss_coverage_comparison(small_program, small_trace)
        assert coverage["airbtb"] > coverage["phantombtb"]
        assert coverage["airbtb"] <= coverage["conventional_16k"] + 0.10
        assert coverage["conventional_16k"] > 0.7

    def test_ablation_steps_accumulate(self, small_program, small_trace):
        steps = airbtb_ablation(small_program, small_trace)
        assert steps["spatial_locality"] > steps["capacity"]
        assert steps["block_based_org"] >= steps["spatial_locality"] - 0.05
        assert steps["baseline_mpki"] > 0

    def test_sensitivity_overflow_buffer_helps(self, small_program, small_trace):
        coverage = airbtb_sensitivity(small_program, small_trace,
                                      bundle_sizes=(3,), overflow_sizes=(0, 32))
        assert coverage[(3, 32)] > coverage[(3, 0)]


class TestBranchDensity:
    def test_densities_in_table2_ballpark(self, small_program, small_trace):
        densities = branch_density_table(small_program, small_trace)
        assert 1.5 < densities["static"] < 6.0
        assert 0.5 < densities["dynamic"] < 3.0
        assert densities["dynamic"] < densities["static"]


class TestCoverageHarness:
    def test_run_btb_coverage_counts_post_warmup(self, small_trace):
        btb = ConventionalBTB(entries=1024, victim_entries=64)
        misses, instructions = run_btb_coverage(btb, small_trace, warmup_fraction=0.2)
        assert misses > 0
        assert instructions < small_trace.instruction_count

    @pytest.mark.parametrize("btb_class", [ConventionalBTB, TwoLevelBTB, PhantomBTB, AirBTB])
    def test_run_btb_coverage_skips_kindless_not_taken_branches(self, btb_class):
        # A branch with no kind (permitted by FetchRecord) that is not taken
        # trains the BTB like a conditional one: no entry, and no crash.
        from repro.workloads.trace import FetchRecord, Trace

        base = 0x4000_0000
        records = []
        for _repeat in range(10):
            records.append(FetchRecord(
                start=base, instruction_count=4, branch_pc=base + 0xC,
                kind=None, taken=False, target=base + 0x800, next_pc=base + 0x10,
            ))
            records.append(FetchRecord(
                start=base + 0x10, instruction_count=4, branch_pc=base + 0x1C,
                kind=None, taken=True, target=base, next_pc=base,
            ))
        btb = btb_class()
        misses, instructions = run_btb_coverage(
            btb, Trace(records, name="kindless"), warmup_fraction=0.0
        )
        assert instructions == 80
        assert misses == 1  # the taken branch's cold miss only
        assert btb.peek_hit(base + 0x1C)
        assert not btb.peek_hit(base + 0xC)


class TestReporting:
    def test_format_table(self):
        text = format_table(
            [{"design": "confluence", "speedup": 1.3}],
            columns=("design", "speedup"),
            title="Figure 6",
        )
        assert "Figure 6" in text
        assert "confluence" in text
        assert "1.300" in text

    def test_format_series(self):
        text = format_series({1024: 40.0, 2048: 20.0}, title="Figure 1")
        assert "Figure 1" in text
        assert "1024" in text

"""Tests for consolidation scenarios: the spec, the heterogeneous CMP,
the sweep integration and the memoized driver's trace-store attachment.

The two load-bearing pins:

* **Degenerate parity** — a single-profile scenario reproduces the
  homogeneous ``run_design`` result bit for bit (the PR's acceptance
  criterion), and
* **Composition** — a mixed scenario's per-profile core groups match the
  corresponding homogeneous CMPs exactly, because each profile's cores see
  the same traces and the same recorded history whether or not another
  workload shares the chip.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Session, run_grid
from repro.core.cmp import ChipMultiprocessor
from repro.sweep import (
    SweepCell,
    TraceStore,
    clear_workload_memo,
    cmp_driver,
    run_sweep,
)
from repro.workloads import get_profile, workload_program
from repro.workloads.scenario import (
    SCENARIOS,
    BoundScenario,
    Scenario,
    ScenarioEntry,
    get_scenario,
    register_scenario,
    scenario_from_profile,
)

DESIGNS = ["baseline", "confluence"]
SCALE = 0.08
INSTRUCTIONS = 5_000


def _strip_workload(result):
    """FrontendResult minus the trace-name-derived workload label.

    Used when comparing cores across runs whose traces are named by their
    (different) core slots; every measured field must still match.
    """
    return dataclasses.replace(result, workload="")


class TestCatalog:
    def test_builtin_scenarios_are_registered(self):
        for name in ("consolidated_oltp_dss", "noisy_neighbor_media",
                     "scale_out_consolidation"):
            assert get_scenario(name).name == name

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(KeyError, match="known:.*consolidated_oltp_dss"):
            get_scenario("nope")

    def test_register_rejects_duplicates(self):
        scenario = scenario_from_profile("oltp_db2", name="scenario_test_dup")
        register_scenario(scenario)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(scenario)
            register_scenario(scenario, overwrite=True)  # explicit wins
        finally:
            del SCENARIOS["scenario_test_dup"]

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            ScenarioEntry(profile="oltp_db2", weight=0)
        with pytest.raises(ValueError, match="at least one entry"):
            Scenario(name="empty", description="", entries=())


class TestBind:
    def test_equal_weights_split_evenly_and_contiguously(self):
        bound = get_scenario("consolidated_oltp_dss").bind(
            cores=4, scale=SCALE, instructions_per_core=INSTRUCTIONS
        )
        names = [workload.profile.name for workload in bound]
        assert names == ["oltp_db2", "oltp_db2", "dss_qry2", "dss_qry2"]

    def test_weighted_deal(self):
        bound = get_scenario("noisy_neighbor_media").bind(cores=4, scale=SCALE)
        assert bound.core_counts() == {"web_frontend": 3, "media_streaming": 1}

    def test_largest_remainder_is_deterministic(self):
        scenario = Scenario(
            name="thirds", description="",
            entries=tuple(
                ScenarioEntry(profile=name)
                for name in ("oltp_db2", "dss_qry2", "media_streaming")
            ),
        )
        bound = scenario.bind(cores=4, scale=SCALE)
        # 4 cores over three equal weights: the leftover core goes to the
        # first entry (ties broken by declaration order).
        assert bound.core_counts() == {
            "oltp_db2": 2, "dss_qry2": 1, "media_streaming": 1,
        }

    def test_seeds_are_per_profile_not_per_slot(self):
        bound = get_scenario("consolidated_oltp_dss").bind(
            cores=4, scale=SCALE, trace_seed_base=100
        )
        seeds = [(w.profile.name, w.seed) for w in bound]
        # Both profiles restart at the base: this is what lets scenarios
        # share trace artifacts with each other and with homogeneous runs.
        assert seeds == [
            ("oltp_db2", 100), ("oltp_db2", 101),
            ("dss_qry2", 100), ("dss_qry2", 101),
        ]

    def test_repeated_profile_entries_continue_the_seed_run(self):
        scenario = Scenario(
            name="split_oltp", description="",
            entries=(
                ScenarioEntry(profile="oltp_db2"),
                ScenarioEntry(profile="dss_qry2"),
                ScenarioEntry(profile="oltp_db2"),
            ),
        )
        bound = scenario.bind(cores=3, scale=SCALE)
        seeds = [(w.profile.name, w.seed) for w in bound]
        assert seeds == [
            ("oltp_db2", 100), ("dss_qry2", 100), ("oltp_db2", 101),
        ]

    def test_instruction_budget_precedence(self):
        scenario = Scenario(
            name="budgets", description="",
            entries=(
                ScenarioEntry(profile="oltp_db2", instructions=7_000),
                ScenarioEntry(profile="dss_qry2"),
            ),
        )
        explicit = scenario.bind(cores=2, scale=SCALE, instructions_per_core=4_000)
        assert [w.instructions for w in explicit] == [7_000, 4_000]
        fallback = scenario.bind(cores=2, scale=SCALE)
        recommended = get_profile("dss_qry2").scaled(SCALE).recommended_trace_instructions
        assert [w.instructions for w in fallback] == [7_000, recommended]

    def test_scale_reaches_the_profiles(self):
        bound = get_scenario("consolidated_oltp_dss").bind(cores=2, scale=SCALE)
        assert bound.assignments[0].profile == get_profile("oltp_db2").scaled(SCALE)

    def test_bind_validation(self):
        scenario = get_scenario("consolidated_oltp_dss")
        with pytest.raises(ValueError, match="at least one core"):
            scenario.bind(cores=0)
        with pytest.raises(ValueError, match="at least one core"):
            BoundScenario(name="empty", assignments=())

    def test_bind_refuses_to_starve_an_entry(self):
        # noisy_neighbor_media at 2 cores would deal [2, 0]: a consolidation
        # silently missing its noisy neighbor must raise, not run under a
        # name promising a mix it does not contain.
        with pytest.raises(ValueError, match="media_streaming"):
            get_scenario("noisy_neighbor_media").bind(cores=2, scale=SCALE)
        with pytest.raises(ValueError, match="leaves no cores"):
            get_scenario("scale_out_consolidation").bind(cores=4, scale=SCALE)

    def test_bound_scenario_is_hashable_and_reporting_helpers(self):
        bound = get_scenario("consolidated_oltp_dss").bind(
            cores=4, scale=SCALE, instructions_per_core=INSTRUCTIONS
        )
        assert hash(bound) == hash(
            get_scenario("consolidated_oltp_dss").bind(
                cores=4, scale=SCALE, instructions_per_core=INSTRUCTIONS
            )
        )
        assert bound.cores == len(bound) == 4
        assert bound.instructions_per_core == INSTRUCTIONS
        assert [profile.name for profile in bound.profiles] == [
            "oltp_db2", "dss_qry2",
        ]


class TestDegenerateParity:
    """The acceptance pin: one-profile scenario == homogeneous, bit for bit."""

    def test_single_profile_scenario_matches_homogeneous_run(self, tiny_program):
        homogeneous = ChipMultiprocessor(
            tiny_program, cores=3, instructions_per_core=INSTRUCTIONS
        ).run_design("confluence")
        bound = scenario_from_profile(tiny_program.profile).bind(
            cores=3, instructions_per_core=INSTRUCTIONS
        )
        heterogeneous = ChipMultiprocessor(scenario=bound).run_design("confluence")

        assert heterogeneous.core_results == homogeneous.core_results
        assert heterogeneous.ipc == homogeneous.ipc
        assert heterogeneous.btb_mpki == homogeneous.btb_mpki
        assert heterogeneous.area == homogeneous.area
        assert heterogeneous.workload == homogeneous.workload
        assert heterogeneous.core_profiles == homogeneous.core_profiles

    def test_parity_holds_through_the_sweep_layer(self, tmp_path):
        clear_workload_memo()
        profile_run = run_sweep(
            ["oltp_db2"], ["baseline"],
            scale=SCALE, cores=2, instructions_per_core=INSTRUCTIONS,
        )
        scenario = scenario_from_profile("oltp_db2", name="oltp_solo")
        scenario_run = run_sweep(
            [], ["baseline"], scenarios=[scenario],
            scale=SCALE, cores=2, instructions_per_core=INSTRUCTIONS,
        )
        via_profile = profile_run.summary("oltp_db2", "baseline")
        via_scenario = scenario_run.summary("oltp_solo", "baseline")
        # Identical measurements; only the workload labels may differ.
        for key in ("instructions", "cycles", "ipc", "btb_mpki", "l1i_mpki",
                    "core_ipc", "cores", "core_profiles", "per_profile"):
            assert via_scenario[key] == via_profile[key], key


class TestHeterogeneousExecution:
    @pytest.fixture(scope="class")
    def mixed(self):
        return get_scenario("consolidated_oltp_dss").bind(
            cores=4, scale=SCALE, instructions_per_core=INSTRUCTIONS
        )

    def test_mixed_run_composes_from_homogeneous_groups(self, mixed):
        """Each profile's core group matches its standalone homogeneous CMP."""
        result = ChipMultiprocessor(scenario=mixed).run_design("confluence")
        assert result.core_profiles == [
            "oltp_db2", "oltp_db2", "dss_qry2", "dss_qry2",
        ]
        start = 0
        for profile in mixed.profiles:
            count = mixed.core_counts()[profile.name]
            alone = ChipMultiprocessor(
                workload_program(profile), cores=count,
                instructions_per_core=INSTRUCTIONS,
            ).run_design("confluence")
            group = result.core_results[start:start + count]
            assert [_strip_workload(r) for r in group] \
                == [_strip_workload(r) for r in alone.core_results], profile.name
            start += count

    def test_per_profile_breakdown_sums_to_the_chip(self, mixed):
        result = ChipMultiprocessor(scenario=mixed).run_design("baseline")
        breakdown = result.per_profile()
        assert set(breakdown) == {"oltp_db2", "dss_qry2"}
        assert sum(group["cores"] for group in breakdown.values()) == 4
        assert sum(group["instructions"] for group in breakdown.values()) \
            == result.instructions
        assert sum(group["cycles"] for group in breakdown.values()) \
            == result.cycles

    def test_scenario_and_program_are_mutually_exclusive(self, tiny_program, mixed):
        with pytest.raises(ValueError, match="not both"):
            ChipMultiprocessor(tiny_program, scenario=mixed)
        with pytest.raises(ValueError, match="program or a scenario"):
            ChipMultiprocessor()


class TestMemoizedDriverStore:
    """The memoized driver follows the latest caller's trace-store knob."""

    def test_detached_driver_runs_from_heap_traces_after_prune(self, tmp_path):
        # Detaching the store from a memoized driver must leave it running
        # from the traces it already holds, even once the store's artifacts
        # are gone.
        clear_workload_memo()
        profile = get_profile("oltp_db2").scaled(SCALE)
        store = TraceStore(tmp_path / "traces")
        attached = cmp_driver(profile, 2, INSTRUCTIONS, trace_store=store)
        with_store = attached.run_design("baseline")

        detached = cmp_driver(profile, 2, INSTRUCTIONS, trace_store=None)
        assert detached is attached
        assert detached.trace_store is None
        removed, _ = store.prune(0)
        assert removed == 2  # both cores' artifacts are gone
        without_store = detached.run_design("baseline")
        assert without_store.core_results == with_store.core_results
        clear_workload_memo()


class TestScenarioSweeps:
    KW = dict(scale=SCALE, cores=4, instructions_per_core=6_000)

    def test_outcome_shape_and_summaries(self):
        outcome = run_sweep(
            [], DESIGNS, scenarios=["consolidated_oltp_dss"], **self.KW
        )
        assert outcome.profiles == []
        assert outcome.scenarios == ["consolidated_oltp_dss"]
        assert outcome.workloads == ["consolidated_oltp_dss"]
        summary = outcome.summary("consolidated_oltp_dss", "confluence")
        assert summary["scenario"] == "consolidated_oltp_dss"
        assert summary["core_profiles"] == [
            "oltp_db2", "oltp_db2", "dss_qry2", "dss_qry2",
        ]
        assert set(summary["per_profile"]) == {"oltp_db2", "dss_qry2"}

    def test_scenario_cells_are_cached(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_sweep(
            [], DESIGNS, scenarios=["consolidated_oltp_dss"],
            cache=cache, **self.KW,
        )
        assert cold.stats.simulated == len(DESIGNS)
        warm = run_sweep(
            [], DESIGNS, scenarios=["consolidated_oltp_dss"],
            cache=cache, **self.KW,
        )
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(DESIGNS)
        assert warm.summaries == cold.summaries

    def test_cross_scenario_trace_dedup(self, tmp_path):
        """A scenario over a store warmed by homogeneous runs generates nothing."""
        store = tmp_path / "traces"
        clear_workload_memo()
        homog = run_sweep(
            ["oltp_db2", "dss_qry2"], ["baseline"], trace_store=store,
            scale=SCALE, cores=2, instructions_per_core=6_000,
        )
        assert homog.stats.traces_generated == 4
        clear_workload_memo()
        mixed = run_sweep(
            [], ["baseline"], scenarios=["consolidated_oltp_dss"],
            trace_store=store, scale=SCALE, cores=4,
            instructions_per_core=6_000,
        )
        assert mixed.stats.traces_generated == 0
        assert mixed.stats.traces_loaded == 4
        # Store-fed (mmap) cores reproduce freshly generated ones bit for bit.
        clear_workload_memo()
        generated = run_sweep(
            [], ["baseline"], scenarios=["consolidated_oltp_dss"],
            scale=SCALE, cores=4, instructions_per_core=6_000,
        )
        assert mixed.summaries == generated.summaries

    def test_mixed_grid_runs_profiles_and_scenarios_together(self):
        outcome = run_sweep(
            ["oltp_db2"], ["baseline"], scenarios=["consolidated_oltp_dss"],
            **self.KW,
        )
        assert outcome.workloads == ["oltp_db2", "consolidated_oltp_dss"]
        assert outcome.stats.cells == 2

    def test_scenario_parallel_cells_match_serial(self, tmp_path):
        serial = run_sweep(
            [], DESIGNS, scenarios=["consolidated_oltp_dss"], **self.KW
        )
        parallel = run_sweep(
            [], DESIGNS, scenarios=["consolidated_oltp_dss"], workers=2,
            **self.KW,
        )
        assert parallel.summaries == serial.summaries

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="no profiles or scenarios"):
            run_sweep([], DESIGNS, **self.KW)

    def test_scenario_profile_name_collision_rejected(self):
        collider = scenario_from_profile("oltp_db2")  # named "oltp_db2"
        with pytest.raises(ValueError, match="collide"):
            run_sweep(["oltp_db2"], ["baseline"], scenarios=[collider], **self.KW)


class TestScenarioCellKeys:
    def _cell(self, bound) -> SweepCell:
        from repro.core.designs import resolve_design

        return SweepCell(
            profile=bound,
            spec=resolve_design("baseline"),
            cores=bound.cores,
            instructions_per_core=bound.instructions_per_core,
        )

    def test_key_covers_the_full_assignment(self):
        bound = get_scenario("consolidated_oltp_dss").bind(
            cores=4, scale=SCALE, instructions_per_core=INSTRUCTIONS
        )
        base_key = self._cell(bound).key()
        assert base_key == self._cell(bound).key()

        bumped_seed = BoundScenario(
            name=bound.name,
            assignments=bound.assignments[:-1] + (
                dataclasses.replace(bound.assignments[-1], seed=999),
            ),
        )
        assert self._cell(bumped_seed).key() != base_key

        bumped_budget = BoundScenario(
            name=bound.name,
            assignments=bound.assignments[:-1] + (
                dataclasses.replace(
                    bound.assignments[-1], instructions=INSTRUCTIONS + 1
                ),
            ),
        )
        assert self._cell(bumped_budget).key() != base_key

    def test_scenario_key_differs_from_profile_key(self):
        bound = scenario_from_profile("oltp_db2").bind(
            cores=2, scale=SCALE, instructions_per_core=INSTRUCTIONS
        )
        scenario_cell = self._cell(bound)
        from repro.core.designs import resolve_design

        profile_cell = SweepCell(
            profile=get_profile("oltp_db2").scaled(SCALE),
            spec=resolve_design("baseline"),
            cores=2,
            instructions_per_core=INSTRUCTIONS,
        )
        assert scenario_cell.key() != profile_cell.key()


class TestSessionScenario:
    KW = dict(scale=SCALE, cores=4, instructions_per_core=6_000)

    def test_session_runs_a_scenario(self):
        session = Session(scenario="consolidated_oltp_dss", **self.KW)
        assert session.profile is None
        assert session.workload_name == "consolidated_oltp_dss"
        report = session.run(DESIGNS)
        assert report.profile == "consolidated_oltp_dss"
        assert report["confluence"]["core_profiles"][:2] == ["oltp_db2", "oltp_db2"]

    def test_session_matches_run_grid(self):
        report = Session(scenario="consolidated_oltp_dss", **self.KW).run(DESIGNS)
        grid = run_grid([], DESIGNS, scenarios=["consolidated_oltp_dss"], **self.KW)
        assert report == grid["consolidated_oltp_dss"]

    def test_scenario_session_has_no_single_program(self):
        session = Session(scenario="consolidated_oltp_dss", **self.KW)
        with pytest.raises(ValueError, match="spans multiple programs"):
            session.program

    def test_scenario_session_cmp_property(self):
        session = Session(scenario="consolidated_oltp_dss", **self.KW)
        assert session.cmp.workload_name == "consolidated_oltp_dss"
        assert session.cmp.cores == 4


class TestScenarioAnalysis:
    def test_scenario_grid_and_comparison_rows(self):
        from repro.analysis import scenario_comparison_rows, scenario_grid

        reports = scenario_grid(
            scenarios=("consolidated_oltp_dss",),
            designs=["baseline", "confluence"],
            scale=SCALE, cores=4, instructions_per_core=6_000,
        )
        rows = scenario_comparison_rows(reports)
        assert len(rows) == 2
        first = rows[0]
        assert first["scenario"] == "consolidated_oltp_dss"
        assert first["design"] == "baseline"
        assert first["speedup"] == 1.0
        assert "ipc[oltp_db2]" in first and "ipc[dss_qry2]" in first

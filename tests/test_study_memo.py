"""The per-trace study memo behind the figure harnesses.

Every test runs on a fresh copy of the trace (``_fresh``): the memo lives on
the ``PackedTrace``, so a shared fixture trace would carry entries from test
to test and make the simulation counts order-dependent.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    BASELINE_BTB,
    airbtb_ablation,
    airbtb_sensitivity,
    btb_capacity_sweep,
    confluence_variant,
    frontend_comparison,
    miss_coverage_comparison,
    run_btb_coverage,
    run_design_coverage,
)
from repro.branch import ConventionalBTB
from repro.core.designs import DesignSpec, resolve_design
from repro.core.frontend import FrontendSimulator
from repro.registry import BTB_REGISTRY, build_btb
from repro.workloads import generate_trace, synthesize_program
from repro.workloads.trace import Trace

FIG02_DESIGNS = ("baseline", "fdp", "phantom_fdp", "2level_fdp", "2level_shift", "ideal")
FIG06_DESIGNS = FIG02_DESIGNS[:5] + ("confluence", "ideal")
FIG07_EXTRA = ("phantom_shift", "idealbtb_shift")


@pytest.fixture(scope="module")
def trace(tiny_program):
    return generate_trace(tiny_program, 5_000, seed=3)


def _fresh(trace):
    """A trace over a copy of the columns: an empty study memo."""
    return Trace.from_packed(trace.packed.slice(0))


@pytest.fixture
def sims(monkeypatch):
    """Names of the designs each ``FrontendSimulator.run`` call simulates."""
    calls = []
    original = FrontendSimulator.run

    def counting(self, trace, warmup_fraction=None):
        calls.append(self.design_name)
        return original(self, trace, warmup_fraction)

    monkeypatch.setattr(FrontendSimulator, "run", counting)
    return calls


@pytest.fixture
def btb_sims(monkeypatch):
    """Class names of the BTBs each bare-BTB coverage walk drives."""
    calls = []
    original = experiments.run_btb_coverage

    def counting(btb, trace, warmup_fraction=experiments.DEFAULT_WARMUP_FRACTION):
        calls.append(type(btb).__name__)
        return original(btb, trace, warmup_fraction)

    monkeypatch.setattr(experiments, "run_btb_coverage", counting)
    return calls


class TestOneSimulationPerConfiguration:
    def test_fig2_then_fig6_simulate_each_design_once(self, tiny_program, trace, sims):
        shared = _fresh(trace)
        frontend_comparison(tiny_program, shared, FIG02_DESIGNS)
        frontend_comparison(tiny_program, shared, FIG06_DESIGNS)
        assert sorted(sims) == sorted(set(FIG06_DESIGNS))
        assert len(sims) == 7

    def test_three_confluence_spellings_simulate_once(self, tiny_program, trace, sims):
        shared = _fresh(trace)
        synced = confluence_variant("airbtb_synced")
        sized = confluence_variant(
            "airbtb_b3_ob32", branch_entries_per_bundle=3, overflow_entries=32
        )
        assert synced.btb_params == sized.btb_params == {}
        outcome = frontend_comparison(tiny_program, shared, ["confluence"])["confluence"]
        expected = (outcome.result.btb_taken_misses, outcome.result.instructions)
        assert run_design_coverage(synced, tiny_program, shared) == expected
        assert run_design_coverage(sized, tiny_program, shared) == expected
        assert sims == ["confluence"]

    def test_a_variant_off_the_defaults_keeps_its_overrides(self):
        spec = confluence_variant("unsynced_b4", synchronized=False,
                                  branch_entries_per_bundle=4, overflow_entries=32)
        assert spec.btb_params == {"branch_entries_per_bundle": 4, "synchronized": False}

    def test_fig9_16k_btb_is_fig1_16k_point(self, tiny_program, trace, btb_sims):
        shared = _fresh(trace)
        btb_capacity_sweep(shared)
        assert len(btb_sims) == 6
        miss_coverage_comparison(tiny_program, shared)
        # Only the baseline and PhantomBTB are new; the 16K BTB is a hit.
        assert btb_sims[6:] == ["ConventionalBTB", "PhantomBTB"]

    def test_each_study_matches_a_fresh_trace(self, tiny_program, trace):
        studies = {
            "frontend_comparison": lambda t: frontend_comparison(
                tiny_program, t, FIG06_DESIGNS + FIG07_EXTRA
            ),
            "btb_capacity_sweep": btb_capacity_sweep,
            "airbtb_ablation": lambda t: airbtb_ablation(tiny_program, t),
            "miss_coverage_comparison": lambda t: miss_coverage_comparison(tiny_program, t),
            "airbtb_sensitivity": lambda t: airbtb_sensitivity(tiny_program, t),
        }
        shared = _fresh(trace)  # later studies read earlier studies' entries
        for name, study in studies.items():
            assert study(shared) == study(_fresh(trace)), name


class TestHitsAndMisses:
    def test_a_hit_is_a_restamped_copy(self, tiny_program, trace, sims):
        shared = _fresh(trace)
        first = frontend_comparison(tiny_program, shared, ["baseline"])["baseline"]
        expected_result = replace(first.result)
        expected_area = dict(first.area.components_mm2)
        assert expected_result.instructions > 0 and expected_area
        second = frontend_comparison(tiny_program, shared, ["baseline"])["baseline"]
        for outcome in (first, second):  # a miss's result, then a hit's
            outcome.result.instructions = -1
            outcome.area.components_mm2.clear()

        renamed = resolve_design("baseline").derive("renamed")
        other = Trace.from_packed(shared.packed, name="other_name")
        hit = frontend_comparison(tiny_program, other, [renamed])["renamed"]
        assert sims == ["baseline"]
        assert hit.design == hit.area.design == "renamed"
        assert hit.result == replace(expected_result, design="renamed", workload="other_name")
        assert hit.area.components_mm2 == expected_area

    def test_another_program_object_misses(self, tiny_profile, tiny_program, trace, sims):
        shared = _fresh(trace)
        twin = synthesize_program(tiny_profile)
        assert twin is not tiny_program
        first = frontend_comparison(tiny_program, shared, ["baseline"])["baseline"]
        second = frontend_comparison(twin, shared, ["baseline"])["baseline"]
        assert sims == ["baseline", "baseline"]
        assert first == second  # same profile, same program content

    def test_another_warmup_misses(self, tiny_program, trace, sims):
        shared = _fresh(trace)
        run_design_coverage("baseline", tiny_program, shared, 0.2)
        run_design_coverage("baseline", tiny_program, shared, 0.3)
        frontend_comparison(tiny_program, shared, ["baseline"])  # config's 0.2: a hit
        assert sims == ["baseline", "baseline"]

    def test_a_warmup_outside_the_unit_interval_is_rejected(self, tiny_program, trace):
        for warmup in (1.0, -0.5):
            with pytest.raises(ValueError, match="warmup_fraction"):
                run_design_coverage("baseline", tiny_program, _fresh(trace), warmup)
            with pytest.raises(ValueError, match="warmup_fraction"):
                btb_capacity_sweep(_fresh(trace), capacities=(1024,), warmup_fraction=warmup)

    def test_a_reregistered_factory_misses(self, tiny_program, trace, sims, btb_sims):
        shared = _fresh(trace)
        spec = DesignSpec("probe", "probe", "memo_probe_btb", "none")

        def small(ctx, **params):
            return ConventionalBTB(entries=1024)

        def large(ctx, **params):
            return ConventionalBTB(entries=4096)

        original = BTB_REGISTRY.get("conventional")

        def wrapped(ctx, **params):
            return original(ctx, **params)

        BTB_REGISTRY.register("memo_probe_btb", small)
        try:
            frontend_comparison(tiny_program, shared, [spec])
            BTB_REGISTRY.register("memo_probe_btb", large, overwrite=True)
            frontend_comparison(tiny_program, shared, [spec])
            btb_capacity_sweep(shared, capacities=(1024,))
            BTB_REGISTRY.register("conventional", wrapped, overwrite=True)
            btb_capacity_sweep(shared, capacities=(1024,))
        finally:
            BTB_REGISTRY.unregister("memo_probe_btb")
            BTB_REGISTRY.register("conventional", original, overwrite=True)
        assert sims == ["probe", "probe"]
        assert btb_sims == ["ConventionalBTB", "ConventionalBTB"]


class TestRepeatedNames:
    def test_repeated_design_name_is_rejected_before_simulating(
        self, tiny_program, trace, sims
    ):
        impostor = resolve_design("fdp").derive("baseline")
        with pytest.raises(ValueError, match="duplicate design"):
            frontend_comparison(tiny_program, _fresh(trace), ("baseline", impostor))
        assert sims == []


class TestLifetime:
    def test_a_pickled_trace_carries_no_memo(self, tiny_program, trace, sims):
        shared = _fresh(trace)
        frontend_comparison(tiny_program, shared, ["baseline"])
        copy = Trace.from_packed(pickle.loads(pickle.dumps(shared.packed)))
        frontend_comparison(tiny_program, copy, ["baseline"])
        assert sims == ["baseline", "baseline"]

    def test_a_head_slice_carries_no_memo(self, tiny_program, trace, sims):
        shared = _fresh(trace)
        frontend_comparison(tiny_program, shared, ["baseline"])
        frontend_comparison(tiny_program, shared.head(len(shared)), ["baseline"])
        assert sims == ["baseline", "baseline"]

    def test_run_btb_coverage_advances_each_callers_btb(self, trace):
        shared = _fresh(trace)
        first, second = build_btb(BASELINE_BTB), build_btb(BASELINE_BTB)
        assert run_btb_coverage(first, shared) == run_btb_coverage(second, shared)
        assert first.stats == second.stats
        assert first.stats.lookups > 0

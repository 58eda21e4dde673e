"""Tests for the registry-driven design API: registries, DesignSpec,
Session/RunReport, and the CMP design-set runner."""

from __future__ import annotations

import pytest

from repro import (
    BTB_REGISTRY,
    PREFETCHER_REGISTRY,
    ChipMultiprocessor,
    DesignSpec,
    RunReport,
    Session,
    build_btb,
    build_design,
    design_from_spec,
    register_design_point,
    resolve_design,
)
from repro.branch.btb_base import BaseBTB, BTBEntry, BTBLookupResult
from repro.core.designs import DESIGN_POINTS, DesignPoint
from repro.registry import Registry


# --------------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------------- #

class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("w", lambda ctx: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("w", lambda ctx: None)

    def test_overwrite_allows_replacement(self):
        registry = Registry("widget")
        registry.register("w", lambda ctx: 1)
        registry.register("w", lambda ctx: 2, overwrite=True)
        assert registry.get("w")(None) == 2

    def test_duplicate_builtin_btb_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            BTB_REGISTRY.register("conventional", lambda ctx: None)

    def test_unknown_component_error_lists_sorted_names(self):
        with pytest.raises(KeyError, match="unknown BTB design 'warp_core'"):
            build_btb("warp_core")
        try:
            BTB_REGISTRY.get("warp_core")
        except KeyError as error:
            listing = str(error)
        names = listing.split("known: ")[1].split(", ")
        assert names == sorted(names)
        assert "airbtb" in names and "conventional" in names

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(KeyError, match="unknown prefetcher"):
            PREFETCHER_REGISTRY.get("psychic")

    def test_builtins_present(self):
        for name in ("conventional", "conventional_1k", "two_level", "phantom",
                     "ideal_16k", "perfect", "airbtb", "airbtb_standalone"):
            assert name in BTB_REGISTRY
        for name in ("none", "fdp", "shift", "perfect"):
            assert name in PREFETCHER_REGISTRY

    def test_bare_btb_construction_with_params(self):
        btb = build_btb("conventional", entries=2048, victim_entries=0, ways=8)
        assert btb.entries == 2048
        assert btb.ways == 8


# --------------------------------------------------------------------------- #
# DesignSpec and the catalog
# --------------------------------------------------------------------------- #

class TestDesignSpec:
    def test_param_overrides_reach_the_component(self, tiny_program):
        spec = DesignSpec(
            name="fat", label="fat", btb="conventional", prefetcher="none",
            btb_params={"entries": 4096, "victim_entries": 0},
        )
        simulator, _ = design_from_spec(spec, tiny_program)
        assert simulator.bpu.btb.entries == 4096
        assert simulator.design_name == "fat"

    def test_prefetcher_params_reach_the_component(self, tiny_program):
        spec = DesignSpec(
            name="deep_fdp", label="deep FDP", btb="conventional_1k",
            prefetcher="fdp", prefetcher_params={"queue_depth_basic_blocks": 12},
        )
        simulator, _ = design_from_spec(spec, tiny_program)
        assert simulator.prefetcher.queue_depth == 12

    def test_airbtb_params_reach_the_config(self, tiny_program):
        spec = resolve_design("confluence").derive(
            "conf_b4", btb_params={"branch_entries_per_bundle": 4}
        )
        simulator, _ = design_from_spec(spec, tiny_program)
        assert simulator.confluence.airbtb.config.branch_entries_per_bundle == 4

    def test_derive_merges_params(self):
        base = DesignSpec(
            name="a", label="a", btb="conventional", prefetcher="none",
            btb_params={"entries": 1024, "ways": 4},
        )
        derived = base.derive("b", btb_params={"entries": 2048})
        assert derived.btb_params == {"entries": 2048, "ways": 4}
        assert derived.name == "b"
        assert base.btb_params["entries"] == 1024  # original untouched

    def test_designpoint_positional_compat(self, tiny_program):
        # The old DesignPoint(name, label, btb, prefetcher, uses_shift, ...)
        # positional form must keep working against the grown spec.
        point = DesignPoint("compat", "Compat", "conventional_1k", "fdp", True)
        assert point.uses_shift is True
        assert point.btb_params == {}
        simulator, _ = design_from_spec(point, tiny_program)
        assert simulator.design_name == "compat"

    def test_dict_round_trip(self):
        spec = resolve_design("confluence").derive(
            "conf_rt", btb_params={"overflow_entries": 16}
        )
        assert DesignSpec.from_dict(spec.to_dict()) == spec

    def test_register_design_point_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_design_point(DESIGN_POINTS["baseline"])

    def test_unknown_design_lists_known_names(self, tiny_program):
        with pytest.raises(KeyError, match="unknown design point 'warp_drive'"):
            build_design("warp_drive", tiny_program)

    def test_cmp_unknown_design_same_error(self, tiny_program):
        cmp_model = ChipMultiprocessor(tiny_program, cores=1, instructions_per_core=5_000)
        with pytest.raises(KeyError, match="unknown design point 'bogus'"):
            cmp_model.run_design("bogus")

    def test_registered_point_buildable_and_removable(self, tiny_program):
        spec = DesignSpec(
            name="tmp_point", label="tmp", btb="conventional", prefetcher="none",
            btb_params={"entries": 512, "victim_entries": 0},
        )
        register_design_point(spec)
        try:
            simulator, _ = build_design("tmp_point", tiny_program)
            assert simulator.bpu.btb.entries == 512
        finally:
            del DESIGN_POINTS["tmp_point"]

    def test_ideal_area_priced_without_shadow_btb(self, tiny_program):
        # The perfect BTB reports infinite storage; its area must come from
        # the spec's explicit accounting (the baseline BTB's storage).
        spec = resolve_design("ideal")
        assert spec.btb_storage_kb is not None
        _, ideal_area = build_design("ideal", tiny_program)
        _, baseline_area = build_design("baseline", tiny_program)
        assert ideal_area.components_mm2["btb"] == pytest.approx(
            baseline_area.components_mm2["btb"]
        )


# --------------------------------------------------------------------------- #
# Session facade + RunReport
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def small_session():
    return Session(profile="oltp_db2", scale=0.08, cores=2,
                   instructions_per_core=6_000)


@pytest.fixture(scope="module")
def small_report(small_session):
    return small_session.run(["baseline", "confluence"])


class TestSession:
    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="unknown workload profile"):
            Session(profile="quantum_db")

    @pytest.mark.parametrize("kwargs", [
        {"cores": 0},
        {"instructions_per_core": 0},
        {"instructions_per_core": -5},
        {"scenario": "consolidated_oltp_dss", "instructions_per_core": 0},
    ])
    def test_unrunnable_chip_shapes_rejected_before_any_cell(self, kwargs):
        # instructions_per_core=0 must not silently mean "profile default".
        with pytest.raises(ValueError, match="at least 1|must be positive"):
            Session(profile="oltp_db2", scale=0.08, **kwargs).run(["baseline"])

    def test_empty_designs_rejected(self, small_session):
        with pytest.raises(ValueError, match="no designs"):
            small_session.run([])

    def test_bad_baseline_rejected(self, small_session):
        with pytest.raises(ValueError, match="not among the designs"):
            small_session.run(["confluence"], baseline="baseline")

    def test_duplicate_design_names_rejected(self, small_session):
        # Duplicates used to keep both entries in report.order while the
        # results dict silently collapsed them; now they fail loudly.
        with pytest.raises(ValueError, match="duplicate design name"):
            small_session.run(["baseline", "confluence", "baseline"])

    def test_duplicate_via_spec_and_name_rejected(self, small_session):
        spec = resolve_design("baseline")
        with pytest.raises(ValueError, match="duplicate design name"):
            small_session.run([spec, "baseline"])

    def test_derived_spec_with_fresh_name_accepted(self, small_session):
        thin = resolve_design("baseline").derive("thin", btb_params={"entries": 512})
        report = small_session.run(["baseline", thin])
        assert report.designs == ["baseline", "thin"]
        assert report["thin"]["ipc"] > 0

    def test_report_shape(self, small_report):
        assert small_report.designs == ["baseline", "confluence"]
        assert small_report.baseline == "baseline"
        assert small_report["baseline"]["speedup"] == pytest.approx(1.0)
        assert small_report["confluence"]["ipc"] > 0
        assert len(small_report["confluence"]["core_ipc"]) == 2
        assert small_report["confluence"]["area_mm2"] > 0

    def test_report_speedup_matches_ipc_ratio(self, small_report):
        expected = small_report["confluence"]["ipc"] / small_report["baseline"]["ipc"]
        assert small_report.speedup("confluence") == pytest.approx(expected)
        assert small_report["confluence"]["speedup"] == pytest.approx(expected)

    def test_json_round_trip(self, small_report):
        restored = RunReport.from_json(small_report.to_json())
        assert restored == small_report
        assert restored["confluence"]["ipc"] == small_report["confluence"]["ipc"]

    def test_session_caches_workload(self, small_session):
        assert small_session.program is small_session.program
        assert small_session.cmp is small_session.cmp

    def test_session_matches_cmp_driver(self, small_session, small_report):
        cmp_model = ChipMultiprocessor(
            small_session.program, cores=2, instructions_per_core=6_000
        )
        direct = cmp_model.run_design("confluence")
        assert small_report["confluence"]["ipc"] == pytest.approx(direct.ipc)


# --------------------------------------------------------------------------- #
# Custom component end-to-end (never imported by repro.core)
# --------------------------------------------------------------------------- #

class AlwaysHitBTB(BaseBTB):
    """A trivial custom BTB: remembers everything, hits after first sight."""

    def __init__(self, latency_cycles: int = 1) -> None:
        super().__init__("always_hit_btb")
        self.latency_cycles = latency_cycles
        self._entries = {}

    def lookup(self, branch_pc, taken=True):
        entry = self._entries.get(branch_pc)
        self.stats.record(entry is not None, taken)
        if entry is not None:
            return BTBLookupResult(True, entry, self.latency_cycles, "custom")
        return BTBLookupResult(False, None, 0, "miss")

    def peek_hit(self, branch_pc):
        return branch_pc in self._entries

    def update(self, branch_pc, kind, target, taken):
        self.stats.insertions += 1
        self._entries[branch_pc] = BTBEntry(branch_pc=branch_pc, kind=kind, target=target)

    @property
    def storage_kb(self):
        return 12.0


@pytest.fixture()
def custom_design():
    BTB_REGISTRY.register("always_hit", lambda ctx, **p: AlwaysHitBTB(**p))
    spec = register_design_point(DesignSpec(
        name="custom_hit", label="Custom", btb="always_hit", prefetcher="none",
        btb_params={"latency_cycles": 2},
    ))
    yield spec
    BTB_REGISTRY.unregister("always_hit")
    del DESIGN_POINTS["custom_hit"]


class TestCustomComponent:
    def test_custom_btb_through_session_run(self, custom_design):
        report = Session(profile="oltp_db2", scale=0.08, cores=2,
                         instructions_per_core=6_000).run(["baseline", "custom_hit"])
        assert "custom_hit" in report
        row = report["custom_hit"]
        assert row["label"] == "Custom"
        assert row["ipc"] > 0
        # The custom storage figure flows into the area model.
        assert row["area_mm2"] > 0
        restored = RunReport.from_json(report.to_json())
        assert "custom_hit" in restored

    def test_custom_btb_instantiated_with_params(self, custom_design, tiny_program):
        simulator, _ = build_design("custom_hit", tiny_program)
        assert isinstance(simulator.bpu.btb, AlwaysHitBTB)
        assert simulator.bpu.btb.latency_cycles == 2


# --------------------------------------------------------------------------- #
# CMP design sets
# --------------------------------------------------------------------------- #

class TestParallelCMP:
    def test_run_designs_accepts_specs(self, tiny_program):
        cmp_model = ChipMultiprocessor(tiny_program, cores=1, instructions_per_core=5_000)
        spec = resolve_design("baseline").derive("thin", btb_params={"entries": 512})
        results = cmp_model.run_designs(["baseline", spec])
        assert set(results) == {"baseline", "thin"}
        assert results["thin"].design == "thin"

    def test_run_designs_duplicate_names_rejected(self, tiny_program):
        cmp_model = ChipMultiprocessor(tiny_program, cores=1, instructions_per_core=5_000)
        with pytest.raises(ValueError, match="duplicate design name"):
            cmp_model.run_designs(["baseline", resolve_design("baseline")])

    def test_chip_has_no_pool_knob(self, tiny_program):
        # Sweep cells are the one unit of parallelism: a chip's cores always
        # run in the process that runs its cell.
        with pytest.raises(TypeError):
            ChipMultiprocessor(tiny_program, cores=2, workers=2)

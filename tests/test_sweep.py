"""Tests for the parallel sweep engine and its on-disk result cache."""

from __future__ import annotations

import json
import os

import pytest

import repro.sweep as sweep_module
from repro.api import Session, reports_from_sweep, run_grid
from repro.core.designs import resolve_design
from repro.core.frontend import FrontendConfig
from repro.sweep import (
    CACHE_SCHEMA_VERSION,
    CorruptArtifactWarning,
    ResultCache,
    SweepCell,
    TraceStore,
    clear_workload_memo,
    default_cache_dir,
    default_trace_dir,
    run_cells,
    run_sweep,
    trace_key,
)
from repro.workloads import get_profile, load_packed, synthesize_program

PROFILES = ["oltp_db2", "dss_qry2"]
DESIGNS = ["baseline", "confluence"]
#: Small enough to keep the whole grid (2 x 2 cells, 2 cores) fast.
GRID_KW = dict(scale=0.08, cores=2, instructions_per_core=6_000)


def _cell(**overrides) -> SweepCell:
    params = dict(
        profile=get_profile("oltp_db2").scaled(0.08),
        spec=resolve_design("baseline"),
        cores=2,
        instructions_per_core=6_000,
    )
    params.update(overrides)
    return SweepCell(**params)


class TestCellKey:
    def test_key_is_stable_and_deterministic(self):
        assert _cell().key() == _cell().key()
        assert len(_cell().key()) == 64  # sha256 hex

    @pytest.mark.parametrize("overrides", [
        {"cores": 4},
        {"instructions_per_core": 7_000},
        {"trace_seed_base": 101},
        {"spec": resolve_design("confluence")},
        {"profile": get_profile("dss_qry2").scaled(0.08)},
        {"frontend_config": FrontendConfig(base_cpi=1.5)},
    ])
    def test_any_parameter_change_changes_the_key(self, overrides):
        assert _cell(**overrides).key() != _cell().key()

    def test_design_param_overrides_reach_the_key(self):
        thin = resolve_design("baseline").derive(
            "baseline", label="1K BTB (baseline)", btb_params={"entries": 512}
        )
        assert _cell(spec=thin).key() != _cell().key()

    def test_swapping_a_registered_factory_changes_the_key(self):
        # A cached cell must not survive its component's implementation: the
        # factory source is part of the key, so re-registering a name under
        # a different factory invalidates instead of serving stale results.
        from repro.registry import BTB_REGISTRY

        key_before = _cell().key()
        original = BTB_REGISTRY.get("conventional")

        def replacement(ctx, **params):
            return original(ctx, **params)

        BTB_REGISTRY.register("conventional", replacement, overwrite=True)
        try:
            assert _cell().key() != key_before
        finally:
            BTB_REGISTRY.register("conventional", original, overwrite=True)
        assert _cell().key() == key_before


class TestResultCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("a" * 64) is None
        assert cache.misses == 1
        cache.put("a" * 64, {"ipc": 1.25, "cores": 2})
        assert cache.get("a" * 64) == {"ipc": 1.25, "cores": 2}
        assert cache.hits == 1

    def test_corrupt_entry_is_quarantined_with_a_warning(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / ("b" * 64 + ".json")
        path.write_text("{not json")
        with pytest.warns(CorruptArtifactWarning, match="quarantined"):
            assert cache.get("b" * 64) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / (path.name + ".corrupt")).exists()
        # Quarantined means gone: the next probe is a silent ordinary miss.
        assert cache.get("b" * 64) is None
        assert cache.quarantined == 1

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("f" * 64, {"ipc": 1.25, "cores": 2})
        payload = json.loads(path.read_text())
        payload["summary"]["ipc"] = 9.99  # bit rot / tampering
        path.write_text(json.dumps(payload))
        with pytest.warns(CorruptArtifactWarning, match="checksum"):
            assert cache.get("f" * 64) is None
        assert cache.quarantined == 1
        assert not path.exists()

    def test_stale_schema_is_a_silent_miss_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / ("c" * 64 + ".json")
        path.write_text(json.dumps(
            {"schema": CACHE_SCHEMA_VERSION + 1, "summary": {"ipc": 1.0}}
        ))
        assert cache.get("c" * 64) is None
        assert cache.quarantined == 0
        assert path.exists()  # another build's entry is left alone

    def test_pre_checksum_entry_is_a_miss(self, tmp_path):
        # Schema 2 cells predate the backend field; schema 3 cells predate
        # the batch backend and the CMP lane-grouped dispatch; schema 4
        # cells predate payload checksums.  Schema 5 must treat all of them
        # as misses, never serve them — and never quarantine them.
        assert CACHE_SCHEMA_VERSION == 5
        cache = ResultCache(tmp_path)
        for fill, stale in (("d", 2), ("e", 3), ("f", 4)):
            (tmp_path / (fill * 64 + ".json")).write_text(json.dumps(
                {"schema": stale, "summary": {"ipc": 1.0, "cores": 2}}
            ))
            assert cache.get(fill * 64) is None
        assert cache.quarantined == 0

    def test_env_var_sets_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().directory == tmp_path / "elsewhere"

    def test_coerce_forms(self, tmp_path):
        assert ResultCache.coerce(None) is None
        assert ResultCache.coerce(False) is None
        assert ResultCache.coerce(True) is not None
        assert ResultCache.coerce(str(tmp_path)).directory == tmp_path
        cache = ResultCache(tmp_path)
        assert ResultCache.coerce(cache) is cache


class TestTraceStore:
    def test_key_sensitivity(self):
        profile = get_profile("oltp_db2").scaled(0.08)
        base = trace_key(profile, 6_000, 100)
        assert base == trace_key(profile, 6_000, 100)
        assert base != trace_key(profile, 7_000, 100)
        assert base != trace_key(profile, 6_000, 101)
        assert base != trace_key(get_profile("dss_qry2").scaled(0.08), 6_000, 100)

    def test_env_var_sets_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        assert default_trace_dir() == tmp_path / "traces"
        assert TraceStore().directory == tmp_path / "traces"

    def test_default_nests_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_trace_dir() == tmp_path / "traces"

    def test_coerce_forms(self, tmp_path):
        assert TraceStore.coerce(None) is None
        assert TraceStore.coerce(False) is None
        assert TraceStore.coerce(True) is not None
        assert TraceStore.coerce(str(tmp_path)).directory == tmp_path
        store = TraceStore(tmp_path)
        assert TraceStore.coerce(store) is store

    def test_load_miss_and_round_trip(self, tmp_path):
        from repro.workloads import generate_trace

        store = TraceStore(tmp_path)
        profile = get_profile("oltp_db2").scaled(0.08)
        assert store.load(profile, 5_000, 42) is None
        assert store.misses == 1

        program = synthesize_program(profile)
        generated = generate_trace(program, 5_000, seed=42, name="core0")
        store.put(profile, 5_000, 42, generated)
        loaded = store.load(profile, 5_000, 42, name="renamed")
        assert store.hits == 1
        assert loaded is not None
        assert loaded.name == "renamed"  # per-core names override the artifact's
        assert len(loaded) == len(generated)
        assert all(a == b for a, b in zip(loaded.records, generated.records, strict=True))

    def test_corrupt_artifact_is_quarantined_with_a_warning(self, tmp_path):
        store = TraceStore(tmp_path)
        profile = get_profile("oltp_db2").scaled(0.08)
        key = trace_key(profile, 5_000, 42)
        tmp_path.mkdir(exist_ok=True)
        path = tmp_path / f"{key}.trace"
        path.write_bytes(b"garbage")
        with pytest.warns(CorruptArtifactWarning, match="quarantined"):
            assert store.load(profile, 5_000, 42) is None
        assert store.misses == 1
        assert store.quarantined == 1
        assert not path.exists()
        assert (tmp_path / (path.name + ".corrupt")).exists()
        # Quarantined means gone: the next probe is a silent ordinary miss.
        assert store.load(profile, 5_000, 42) is None
        assert store.quarantined == 1

    def test_loads_are_mmap_backed_by_default(self, tmp_path):
        from repro.workloads import generate_trace

        store = TraceStore(tmp_path)
        profile = get_profile("oltp_db2").scaled(0.08)
        program = synthesize_program(profile)
        store.put(profile, 5_000, 42, generate_trace(program, 5_000, seed=42))
        loaded = store.load(profile, 5_000, 42)
        assert loaded is not None and loaded.packed.mapped
        assert store.hits == 1
        # Every load maps; neither the store nor the reader takes a knob.
        with pytest.raises(TypeError):
            TraceStore(tmp_path, mmap=False)
        with pytest.raises(TypeError):
            load_packed(store.path_for(profile, 5_000, 42), mmap=False)


class TestTraceStorePrune:
    """Size-bounded LRU eviction for long-lived shared store directories."""

    def _store_with_artifacts(self, tmp_path, seeds=(1, 2, 3)):
        from repro.workloads import generate_trace

        store = TraceStore(tmp_path / "traces")
        profile = get_profile("oltp_db2").scaled(0.08)
        program = synthesize_program(profile)
        paths = []
        for order, seed in enumerate(seeds):
            trace = generate_trace(program, 2_000, seed=seed)
            path = store.put(profile, 2_000, seed, trace)
            # Deterministic LRU order regardless of filesystem timestamp
            # granularity: seed i was last used i hours after the epoch.
            stamp = 3600.0 * (order + 1)
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return store, profile, paths

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        store, _, paths = self._store_with_artifacts(tmp_path)
        sizes = [path.stat().st_size for path in paths]
        budget = sum(sizes) - 1  # force out exactly the single coldest artifact
        removed, freed = store.prune(budget)
        assert removed == 1
        assert freed == sizes[0]
        assert not paths[0].exists()  # the coldest artifact went first
        assert paths[1].exists() and paths[2].exists()

    def test_prune_to_zero_removes_everything(self, tmp_path):
        store, _, paths = self._store_with_artifacts(tmp_path)
        total = sum(path.stat().st_size for path in paths)
        removed, freed = store.prune(0)
        assert removed == 3
        assert freed == total
        assert all(not path.exists() for path in paths)

    def test_prune_within_budget_is_a_no_op(self, tmp_path):
        store, _, paths = self._store_with_artifacts(tmp_path)
        removed, freed = store.prune(1 << 30)
        assert (removed, freed) == (0, 0)
        assert all(path.exists() for path in paths)

    def test_pruned_artifact_is_regenerated_on_demand(self, tmp_path):
        store, profile, _ = self._store_with_artifacts(tmp_path)
        store.prune(0)
        assert store.load(profile, 2_000, 1) is None  # clean miss, no error
        assert store.misses == 1

    def test_prune_on_missing_directory_is_a_no_op(self, tmp_path):
        store = TraceStore(tmp_path / "never-created")
        assert store.prune(100) == (0, 0)

    def test_prune_empty_store_is_a_no_op(self, tmp_path):
        # An existing-but-empty directory: nothing to evict at any budget,
        # including the degenerate max_bytes=0.
        store = TraceStore(tmp_path / "traces")
        store.directory.mkdir(parents=True)
        assert store.prune(0) == (0, 0)
        assert store.prune(1 << 20) == (0, 0)
        assert store.directory.is_dir()  # prune never removes the directory

    def test_prune_zero_budget_ignores_foreign_files(self, tmp_path):
        # max_bytes=0 means "no artifacts", not "empty directory": files that
        # are not .trace artifacts are none of prune's business.
        store, _, paths = self._store_with_artifacts(tmp_path)
        bystander = store.directory / "README.txt"
        bystander.write_text("not an artifact")
        removed, _ = store.prune(0)
        assert removed == len(paths)
        assert bystander.exists()

    def test_prune_with_tied_timestamps_still_meets_the_budget(self, tmp_path):
        # Identical max(atime, mtime) on every artifact: the LRU order is
        # arbitrary but the contract is not — prune must still evict exactly
        # enough artifacts to fit the budget, deterministically in count.
        store = TraceStore(tmp_path / "traces")
        store.directory.mkdir(parents=True)
        size = 1024
        paths = []
        for index in range(3):
            path = store.directory / (f"{index:064x}.trace")
            path.write_bytes(b"x" * size)
            os.utime(path, (1000.0, 1000.0))
            paths.append(path)
        removed, freed = store.prune(size)  # room for exactly one artifact
        assert removed == 2
        assert freed == 2 * size
        assert sum(path.exists() for path in paths) == 1

    def test_prune_in_flight_tempfile_bytes_do_not_count(self, tmp_path):
        # The budget is over *artifacts*: an in-flight put()'s tempfile must
        # not push the store over budget and trigger spurious evictions.
        store, _, paths = self._store_with_artifacts(tmp_path)
        budget = sum(path.stat().st_size for path in paths)
        tmp = store.directory / ".tmp-inflight.trace"
        tmp.write_bytes(b"x" * (1 << 20))
        os.utime(tmp, (1.0, 1.0))
        assert store.prune(budget) == (0, 0)
        assert all(path.exists() for path in paths)
        assert tmp.exists()

    def test_prune_never_touches_in_flight_put_tempfiles(self, tmp_path):
        # put() streams into a .tmp-*.trace sibling before its atomic rename;
        # a concurrent prune must neither delete it (the writer's os.replace
        # would explode) nor count its bytes toward the budget.
        store, _, paths = self._store_with_artifacts(tmp_path)
        tmp = store.directory / ".tmp-inflight.trace"
        tmp.write_bytes(b"x" * 1024)
        os.utime(tmp, (1.0, 1.0))  # older than every real artifact
        removed, _ = store.prune(0)
        assert removed == len(paths)
        assert tmp.exists()
        assert all(not path.exists() for path in paths)

    def test_prune_rejects_negative_budgets(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(ValueError, match="non-negative"):
            store.prune(-1)


class TestTraceStoreInSweeps:
    """The PR's second acceptance pin: a warm store means zero generations."""

    def test_warm_grid_performs_zero_trace_generations(self, tmp_path):
        store_dir = tmp_path / "traces"
        # Earlier tests may have memoized these cells' traces in-process;
        # start from a clean slate so the cold run populates the store.
        clear_workload_memo()
        cold = run_sweep(PROFILES, DESIGNS, trace_store=store_dir, **GRID_KW)
        assert cold.stats.traces_generated == len(PROFILES) * GRID_KW["cores"]

        # Drop the per-process memos so the warm run must re-acquire every
        # trace — from the store, not the generator.
        clear_workload_memo()
        warm = run_sweep(PROFILES, DESIGNS, trace_store=store_dir, **GRID_KW)
        assert warm.stats.traces_generated == 0
        assert warm.stats.traces_loaded == len(PROFILES) * GRID_KW["cores"]
        assert warm.summaries == cold.summaries

    def test_store_fed_grid_is_bit_identical_to_generated(self, tmp_path):
        store_dir = tmp_path / "traces"
        clear_workload_memo()
        run_sweep(PROFILES, DESIGNS, trace_store=store_dir, **GRID_KW)
        clear_workload_memo()
        via_store = run_sweep(PROFILES, DESIGNS, trace_store=store_dir, **GRID_KW)
        clear_workload_memo()
        generated = run_sweep(PROFILES, DESIGNS, **GRID_KW)
        assert via_store.summaries == generated.summaries

    def test_parallel_warm_grid_generates_nothing(self, tmp_path):
        store_dir = tmp_path / "traces"
        clear_workload_memo()
        cold = run_sweep(PROFILES, DESIGNS, trace_store=store_dir, **GRID_KW)
        clear_workload_memo()
        warm = run_sweep(
            PROFILES, DESIGNS, trace_store=store_dir, workers=2, **GRID_KW
        )
        assert warm.stats.traces_generated == 0
        assert warm.summaries == cold.summaries

    def test_session_accepts_trace_store(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        clear_workload_memo()
        first = Session(
            profile="oltp_db2", trace_store=store, **GRID_KW
        ).run(DESIGNS)
        clear_workload_memo()
        second = Session(
            profile="oltp_db2", trace_store=store, **GRID_KW
        ).run(DESIGNS)
        assert store.hits > 0
        assert first == second


class TestSweepValidation:
    def test_duplicate_designs_rejected(self):
        with pytest.raises(ValueError, match="duplicate design"):
            run_sweep(PROFILES, ["baseline", "baseline"], **GRID_KW)

    def test_duplicate_profiles_rejected(self):
        with pytest.raises(ValueError, match="duplicate profile"):
            run_sweep(["oltp_db2", "oltp_db2"], DESIGNS, **GRID_KW)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="no profiles"):
            run_sweep([], DESIGNS, **GRID_KW)
        with pytest.raises(ValueError, match="no designs"):
            run_sweep(PROFILES, [], **GRID_KW)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_cells([_cell()], workers=0)


class TestSweepParityAndCache:
    """The PR's acceptance criterion: parallel == serial, warm rerun == free."""

    @pytest.fixture(scope="class")
    def serial_reports(self):
        return run_grid(PROFILES, DESIGNS, **GRID_KW)

    def test_parallel_grid_identical_to_serial(self, serial_reports):
        parallel = run_grid(PROFILES, DESIGNS, workers=4, **GRID_KW)
        assert parallel == serial_reports

    def test_more_workers_than_cells_uses_the_cell_pool(self, monkeypatch):
        # More workers than pending cells, each wider than the grid is long:
        # the cells still go through the cell pool (one process per cell).
        pooled = []
        run_pooled = sweep_module._run_pending_pooled

        def spy(cells, pending, *args):
            pooled.append(list(pending))
            return run_pooled(cells, pending, *args)

        monkeypatch.setattr(sweep_module, "_run_pending_pooled", spy)
        kw = dict(scale=0.08, cores=3, instructions_per_core=5_000)
        serial = run_grid(["oltp_db2"], DESIGNS, **kw)
        assert pooled == []
        wide = run_grid(["oltp_db2"], DESIGNS, workers=8, **kw)
        assert pooled == [[0, 1]]
        assert wide == serial

    def test_grid_matches_per_profile_sessions(self, serial_reports):
        for profile in PROFILES:
            assert Session(profile=profile, **GRID_KW).run(DESIGNS) \
                == serial_reports[profile]

    def test_rerun_is_served_entirely_from_cache(self, tmp_path, serial_reports):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(PROFILES, DESIGNS, workers=4, cache=cache, **GRID_KW)
        assert cold.stats.simulated == len(PROFILES) * len(DESIGNS)
        assert cold.stats.cache_hits == 0

        warm = run_sweep(PROFILES, DESIGNS, workers=4, cache=cache, **GRID_KW)
        assert warm.stats.simulated == 0  # zero simulations on the rerun
        assert warm.stats.cache_hits == len(PROFILES) * len(DESIGNS)
        assert warm.summaries == cold.summaries

        # And the reports built from cached cells match the uncached path.
        assert reports_from_sweep(warm) == serial_reports

    def test_session_uses_the_cache(self, tmp_path, serial_reports):
        cache = ResultCache(tmp_path / "session-cache")
        first = Session(profile="oltp_db2", cache=cache, **GRID_KW).run(DESIGNS)
        hits_before = cache.hits
        second = Session(profile="oltp_db2", cache=cache, **GRID_KW).run(DESIGNS)
        assert cache.hits == hits_before + len(DESIGNS)
        assert first == second == serial_reports["oltp_db2"]

    def test_cache_key_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(["oltp_db2"], ["baseline"], cache=cache, **GRID_KW)
        bumped = dict(GRID_KW, instructions_per_core=7_000)
        outcome = run_sweep(["oltp_db2"], ["baseline"], cache=cache, **bumped)
        assert outcome.stats.simulated == 1  # different cell, not a stale hit


class TestSweepOutcome:
    def test_outcome_shape(self):
        outcome = run_sweep(["oltp_db2"], DESIGNS, **GRID_KW)
        assert outcome.profiles == ["oltp_db2"]
        assert outcome.designs == DESIGNS
        assert outcome.stats.cells == len(DESIGNS)
        summary = outcome.summary("oltp_db2", "confluence")
        assert summary["cores"] == 2
        assert summary["ipc"] > 0
        assert "speedup" not in summary  # baseline-independent by design
        assert len(outcome.cells) == len(DESIGNS)

    def test_summaries_are_json_round_trippable(self):
        outcome = run_sweep(["oltp_db2"], ["baseline"], **GRID_KW)
        summary = outcome.summary("oltp_db2", "baseline")
        assert json.loads(json.dumps(summary)) == summary

    def test_reports_from_sweep_unknown_baseline_rejected(self):
        outcome = run_sweep(["oltp_db2"], ["confluence"], **GRID_KW)
        with pytest.raises(ValueError, match="not among the designs"):
            reports_from_sweep(outcome, baseline="baseline")

    def test_per_profile_trace_length_defaults(self):
        # Without an explicit instructions_per_core every profile uses its
        # own (scaled) recommendation.
        outcome = run_sweep(["oltp_db2"], ["baseline"], scale=0.08, cores=1)
        expected = get_profile("oltp_db2").scaled(0.08).recommended_trace_instructions
        assert outcome.cells[0].instructions_per_core == expected

"""Chaos suite: deterministic fault injection against the sweep engine.

Every fault here is a seeded :class:`repro.faultinject.FaultPlan` fired at
named injection points — no real ``kill`` races — and every recovery path
must reproduce the fault-free serial summaries bit for bit: resilience
never trades determinism for liveness (the contract staticcheck R006
enforces statically).
"""

from __future__ import annotations

import json

import pytest

from repro.faultinject import FaultPlan, FaultRule, active, flip_bits, truncate_file
from repro.resilience import (
    JOURNAL_SCHEMA_VERSION,
    CellExecutionError,
    RetryPolicy,
    RunJournal,
)
from repro.sweep import (
    CorruptArtifactWarning,
    ResultCache,
    TraceStore,
    clear_workload_memo,
    run_sweep,
)
from repro.workloads import get_profile

PROFILES = ["oltp_db2", "dss_qry2"]
DESIGNS = ["baseline", "confluence"]
#: Small enough to keep every chaos run fast (2 x 2 cells, 2 cores).
GRID_KW = dict(scale=0.08, cores=2, instructions_per_core=4_000)

#: Zero backoff: retry semantics without wall-clock cost.
FAST = RetryPolicy(retries=2, backoff=0.0)


def sweep(**overrides):
    kwargs = dict(GRID_KW, cache=False, policy=FAST)
    kwargs.update(overrides)
    return run_sweep(PROFILES, DESIGNS, **kwargs)


@pytest.fixture(scope="module")
def reference():
    """Fault-free serial summaries: the bit-identity reference."""
    clear_workload_memo()
    return sweep().summaries


class TestRetryPolicy:
    def test_deterministic_capped_exponential_backoff(self):
        policy = RetryPolicy(retries=5, backoff=0.05, backoff_cap=0.3)
        delays = [policy.delay(attempt) for attempt in range(5)]
        assert delays == [0.05, 0.1, 0.2, 0.3, 0.3]
        # Determinism: the same policy always yields the same schedule.
        assert delays == [policy.delay(attempt) for attempt in range(5)]

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1},
        {"backoff": -0.1},
        {"backoff_cap": -1.0},
        {"cell_timeout": 0.0},
        {"cell_timeout": -5.0},
        {"max_pool_rebuilds": -1},
        # Counts are ints: 2.5 retries used to crash the serial scheduler
        # with a bare TypeError, and True acted as one retry.
        {"retries": 2.5},
        {"retries": True},
        {"max_pool_rebuilds": 1.5},
    ])
    def test_invalid_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_is_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestFaultPlan:
    def test_rules_match_point_label_and_attempt(self):
        plan = FaultPlan()
        plan.fail("cell:simulate", match="oltp", attempts=2)
        with pytest.raises(OSError):
            plan.fire("cell:simulate", label="oltp_db2/baseline", attempt=0)
        with pytest.raises(OSError):
            plan.fire("cell:simulate", label="oltp_db2/baseline", attempt=1)
        # Past the attempt bound, and on non-matching labels/points: no-ops.
        plan.fire("cell:simulate", label="oltp_db2/baseline", attempt=2)
        plan.fire("cell:simulate", label="dss_qry2/baseline", attempt=0)
        plan.fire("trace:load", label="oltp_db2/baseline", attempt=0)
        assert len(plan.fired) == 2

    def test_times_bounds_total_fires(self):
        plan = FaultPlan()
        plan.fail("cache:get", times=1)
        with pytest.raises(OSError):
            plan.fire("cache:get", label="k1")
        plan.fire("cache:get", label="k2")  # exhausted

    def test_errors_are_fresh_instances_and_factories_work(self):
        plan = FaultPlan()
        rule = plan.fail("cell:simulate", error=OSError("flaky disk"))
        first = pytest.raises(OSError, plan.fire, "cell:simulate").value
        second = pytest.raises(OSError, plan.fire, "cell:simulate").value
        assert first is not second and str(first) == "flaky disk"
        assert rule.fired == 2
        plan2 = FaultPlan()
        plan2.fail("cell:simulate", error=lambda: ValueError("made to order"))
        with pytest.raises(ValueError, match="made to order"):
            plan2.fire("cell:simulate")

    def test_invalid_rules_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(point="x", action="explode")
        with pytest.raises(ValueError, match="attempts"):
            FaultRule(point="x", attempts=0)
        with pytest.raises(ValueError, match="times"):
            FaultRule(point="x", times=0)

    def test_active_context_installs_and_removes(self):
        plan = FaultPlan()
        plan.fail("cell:simulate")
        from repro.faultinject import injection_point
        injection_point("cell:simulate")  # no active plan: no-op
        with active(plan):
            with pytest.raises(OSError):
                injection_point("cell:simulate")
        injection_point("cell:simulate")  # deactivated again

    def test_truncate_file_is_exact(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(bytes(range(100)))
        assert truncate_file(path, 10) == 90
        assert path.read_bytes() == bytes(range(10))
        assert truncate_file(path, 10) == 0  # already small enough

    def test_flip_bits_is_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(bytes(256))
        b.write_bytes(bytes(256))
        assert flip_bits(a, count=4, seed=7) == flip_bits(b, count=4, seed=7)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != bytes(256)


class TestRetryPaths:
    def test_transient_fault_then_success_serial(self, reference):
        plan = FaultPlan()
        plan.fail("cell:simulate", match="dss_qry2/baseline", attempts=2)
        clear_workload_memo()
        with active(plan):
            outcome = sweep()
        assert outcome.stats.retried == 2
        assert outcome.stats.simulated == 4
        assert outcome.summaries == reference

    def test_retry_budget_exhaustion_names_the_cell(self):
        plan = FaultPlan()
        plan.fail("cell:simulate", match="oltp_db2/confluence", attempts=10)
        clear_workload_memo()
        with active(plan):
            with pytest.raises(CellExecutionError, match="oltp_db2/confluence"):
                sweep(policy=RetryPolicy(retries=1, backoff=0.0))

    def test_transient_fault_then_success_pooled(self, reference):
        plan = FaultPlan()
        plan.fail("cell:simulate", match="oltp_db2/baseline", attempts=1)
        clear_workload_memo()
        with active(plan):
            outcome = sweep(workers=2)
        assert outcome.stats.retried >= 1
        assert outcome.summaries == reference


class TestPoolRecovery:
    def test_worker_kill_mid_sweep_rebuilds_and_completes(self, reference):
        plan = FaultPlan()
        plan.kill_worker("cell:simulate", match="oltp_db2/confluence", attempts=1)
        clear_workload_memo()
        with active(plan):
            outcome = sweep(workers=2)
        assert outcome.stats.pool_rebuilds >= 1
        assert outcome.stats.retried >= 1
        assert outcome.stats.simulated == 4
        assert outcome.summaries == reference

    @pytest.mark.parametrize("profiles, cores, workers, hang", [
        # 2 x 2 cells on 2 cores: the pool is as wide as the workers.
        (PROFILES, 2, 2, "dss_qry2/confluence"),
        # 1 x 2 cells, each wider than the grid is long (3 cores, 4
        # workers): they still go through the cell pool and its watchdog.
        (["oltp_db2"], 3, 4, "oltp_db2/confluence"),
    ], ids=["four-cells", "two-wide-cells"])
    def test_hung_worker_trips_the_timeout_watchdog(
        self, profiles, cores, workers, hang
    ):
        kwargs = dict(GRID_KW, cores=cores, cache=False)
        clear_workload_memo()
        reference = run_sweep(profiles, DESIGNS, **kwargs).summaries
        plan = FaultPlan()
        plan.hang("cell:simulate", seconds=30.0, match=hang, attempts=1)
        clear_workload_memo()
        with active(plan):
            outcome = run_sweep(
                profiles, DESIGNS, workers=workers,
                policy=RetryPolicy(retries=2, backoff=0.0, cell_timeout=3.0),
                **kwargs,
            )
        assert outcome.stats.timed_out >= 1
        assert outcome.stats.pool_rebuilds >= 1
        assert outcome.summaries == reference

    def test_degrades_to_serial_after_rebuild_budget(self, reference):
        # max_pool_rebuilds=0: the first broken pool sends the remaining
        # cells down the serial path.  The kill rule only covers attempt 0,
        # so the degraded (attempt >= 1) re-execution survives the parent.
        plan = FaultPlan()
        plan.kill_worker("cell:simulate", match="oltp_db2/baseline", attempts=1)
        clear_workload_memo()
        with active(plan):
            outcome = sweep(
                workers=2,
                policy=RetryPolicy(retries=2, backoff=0.0, max_pool_rebuilds=0),
            )
        assert outcome.stats.pool_rebuilds == 1
        assert outcome.stats.simulated == 4
        assert outcome.summaries == reference


class TestArtifactIntegrity:
    def test_corrupt_cache_entry_quarantined_and_resimulated(
        self, tmp_path, reference
    ):
        cache_dir = tmp_path / "cache"
        clear_workload_memo()
        first = sweep(cache=cache_dir)
        assert first.stats.simulated == 4
        victim = sorted(cache_dir.glob("*.json"))[0]
        victim.write_text("{definitely not json")
        clear_workload_memo()
        with pytest.warns(CorruptArtifactWarning, match="cache entry"):
            second = sweep(cache=cache_dir)
        assert second.stats.quarantined == 1
        assert second.stats.cache_hits == 3
        assert second.stats.simulated == 1  # only the corrupt cell re-earns
        assert second.summaries == reference
        assert victim.with_name(victim.name + ".corrupt").exists()

    def test_truncated_trace_artifact_quarantined_and_regenerated(
        self, tmp_path, reference
    ):
        trace_dir = tmp_path / "traces"
        clear_workload_memo()
        sweep(trace_store=trace_dir)
        victim = sorted(trace_dir.glob("*.trace"))[0]
        # Drop the sidecar to emulate a legacy artifact: the truncation must
        # be caught structurally by the packed loader itself.
        victim.with_name(victim.name + ".sum").unlink()
        truncate_file(victim, victim.stat().st_size // 2)
        clear_workload_memo()
        with pytest.warns(CorruptArtifactWarning, match="trace artifact"):
            outcome = sweep(trace_store=trace_dir)
        assert outcome.stats.quarantined >= 1
        assert outcome.stats.traces_generated >= 1  # regenerated, not crashed
        assert outcome.summaries == reference
        assert victim.with_name(victim.name + ".corrupt").exists()

    def test_bit_flipped_trace_fails_its_checksum(self, tmp_path, reference):
        trace_dir = tmp_path / "traces"
        clear_workload_memo()
        sweep(trace_store=trace_dir)
        victim = sorted(trace_dir.glob("*.trace"))[1]
        flip_bits(victim, count=1, seed=3)
        clear_workload_memo()
        with pytest.warns(CorruptArtifactWarning, match="checksum"):
            outcome = sweep(trace_store=trace_dir)
        assert outcome.stats.quarantined >= 1
        assert outcome.summaries == reference

    def test_injected_cache_read_fault_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("a" * 64, {"ipc": 1.0})
        plan = FaultPlan()
        plan.fail("cache:get", error=OSError("injected I/O error"), times=1)
        with active(plan):
            with pytest.warns(CorruptArtifactWarning):
                assert cache.get("a" * 64) is None
        assert cache.quarantined == 1
        assert not path.exists()

    def test_injected_trace_load_fault_quarantines(self, tmp_path):
        from repro.workloads import generate_trace, synthesize_program

        store = TraceStore(tmp_path)
        profile = get_profile("oltp_db2").scaled(0.08)
        program = synthesize_program(profile)
        store.put(profile, 4_000, 42, generate_trace(program, 4_000, seed=42))
        plan = FaultPlan()
        plan.fail("trace:load", error=OSError("injected I/O error"), times=1)
        with active(plan):
            with pytest.warns(CorruptArtifactWarning):
                assert store.load(profile, 4_000, 42) is None
        assert store.quarantined == 1
        # The quarantine took the sidecar along with the artifact.
        assert not list(tmp_path.glob("*.trace"))
        assert not list(tmp_path.glob("*.trace.sum"))


class TestRunJournal:
    def test_resume_simulates_exactly_the_missing_cells(
        self, tmp_path, reference
    ):
        journal_dir = tmp_path / "journal"
        clear_workload_memo()
        sweep(journal=journal_dir)
        journal_file = next(journal_dir.glob("*.jsonl"))
        lines = journal_file.read_text().splitlines()
        assert len(lines) == 5  # header + 4 cells
        # Emulate a sweep hard-killed after two cells: header + 2 records.
        journal_file.write_text("\n".join(lines[:3]) + "\n")
        clear_workload_memo()
        outcome = sweep(journal=journal_dir, resume=True)
        assert outcome.stats.resumed == 2
        assert outcome.stats.simulated == 2
        assert outcome.stats.cells == 4
        assert outcome.summaries == reference
        # The resumed run journaled its fresh cells: full resume now.
        clear_workload_memo()
        final = sweep(journal=journal_dir, resume=True)
        assert final.stats.simulated == 0
        assert final.stats.resumed == 4
        assert final.summaries == reference

    def test_without_resume_the_journal_is_written_not_read(self, tmp_path):
        journal_dir = tmp_path / "journal"
        clear_workload_memo()
        sweep(journal=journal_dir)
        clear_workload_memo()
        outcome = sweep(journal=journal_dir)  # no resume: a fresh run
        assert outcome.stats.simulated == 4
        assert outcome.stats.resumed == 0

    def test_resumed_cells_reseed_the_cache(self, tmp_path, reference):
        journal_dir = tmp_path / "journal"
        cache_dir = tmp_path / "cache"
        clear_workload_memo()
        sweep(journal=journal_dir)
        clear_workload_memo()
        outcome = sweep(journal=journal_dir, resume=True, cache=cache_dir)
        assert outcome.stats.resumed == 4
        clear_workload_memo()
        warm = sweep(cache=cache_dir)
        assert warm.stats.cache_hits == 4 and warm.stats.simulated == 0
        assert warm.summaries == reference

    def test_torn_tail_and_foreign_lines_are_skipped(self, tmp_path):
        keys = ["k1", "k2"]
        journal = RunJournal(tmp_path, keys)
        journal.record("k1", {"ipc": 1.0})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "elsewhere", "summary": {}}) + "\n")
            handle.write('{"key": "k2", "summ')  # torn tail from a crash
        loaded = RunJournal(tmp_path, keys)
        assert loaded.load() == {"k1": {"ipc": 1.0}}
        assert loaded.skipped_lines == 2

    def test_schema_mismatch_voids_the_whole_file(self, tmp_path):
        journal = RunJournal(tmp_path, ["k1"])
        journal.record("k1", {"ipc": 1.0})
        text = journal.path.read_text().replace(
            f'"schema": {JOURNAL_SCHEMA_VERSION}',
            f'"schema": {JOURNAL_SCHEMA_VERSION + 1}',
        )
        journal.path.write_text(text)
        assert RunJournal(tmp_path, ["k1"]).load() == {}

    def test_journal_identity_is_the_cell_key_set(self, tmp_path):
        same = RunJournal(tmp_path, ["k1", "k2"])
        shuffled = RunJournal(tmp_path, ["k2", "k1"])
        other = RunJournal(tmp_path, ["k1", "k3"])
        assert same.path == shuffled.path  # order-independent
        assert same.path != other.path  # any grid change lands elsewhere

    def test_record_rejects_keys_outside_the_sweep(self, tmp_path):
        journal = RunJournal(tmp_path, ["k1"])
        with pytest.raises(ValueError, match="not part of this sweep"):
            journal.record("k9", {})

    def test_missing_journal_loads_empty(self, tmp_path):
        assert RunJournal(tmp_path, ["k1"]).load() == {}

    def test_foreign_journal_instance_is_rejected(self):
        foreign = RunJournal("/tmp/nowhere", ["not-a-cell-key"])
        with pytest.raises(ValueError, match="different cell-key set"):
            run_sweep(PROFILES, DESIGNS, **GRID_KW, cache=False, journal=foreign)

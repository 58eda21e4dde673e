"""Tests for the ``python -m repro`` command-line entry points."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest

import repro.workloads
from repro.__main__ import main
from repro.workloads import load_packed
from repro.workloads.packed import COLUMN_NAMES, PackedTrace

#: ``trace --out`` arguments for a tiny artifact (append ``--out PATH``).
TINY_TRACE_ARGS = [
    "trace", "--profile", "oltp_db2", "--scale", "0.08",
    "--instructions", "5000", "--seed", "3",
]


class TestTraceCommand:
    def test_pack_verify_and_info(self, tmp_path, capsys):
        out = tmp_path / "oltp.trace"
        code = main([*TINY_TRACE_ARGS, "--out", str(out), "--verify"])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "artifact name and columns match the trace written" in captured.out

        packed = load_packed(out)
        assert packed.instruction_count >= 5000

        code = main(["trace", "--info", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "fetch regions" in captured.out

    def test_verify_compares_every_column(self, tmp_path, capsys, monkeypatch):
        # Statistics never read ``targets``: a reader that returns one wrong
        # target must still fail the round trip.
        real_load = repro.workloads.load_packed

        def tampered_load(path):
            packed = real_load(path)
            targets = array("q", packed.targets)
            index = next(i for i, target in enumerate(targets) if target != -1)
            targets[index] += 4
            columns = [
                targets if attr == "targets" else getattr(packed, attr)
                for attr in COLUMN_NAMES
            ]
            return PackedTrace(columns, name=packed.name)

        monkeypatch.setattr(repro.workloads, "load_packed", tampered_load)
        out = tmp_path / "oltp.trace"
        code = main([*TINY_TRACE_ARGS, "--out", str(out), "--verify"])
        assert code == 1
        assert "targets differ" in capsys.readouterr().err

    @pytest.mark.parametrize("instructions", ["0", "-5"])
    def test_nonpositive_instructions_is_a_usage_error_writing_nothing(
        self, tmp_path, capsys, instructions
    ):
        out = tmp_path / "empty.trace"
        code = main([
            "trace", "--profile", "oltp_db2", "--scale", "0.08",
            "--instructions", instructions, "--out", str(out),
        ])
        assert code == 2
        assert "--instructions must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_out_requires_profile(self, tmp_path, capsys):
        code = main(["trace", "--out", str(tmp_path / "x.trace")])
        assert code == 2
        assert "--profile" in capsys.readouterr().err

    def test_requires_a_mode(self, capsys):
        code = main(["trace", "--profile", "oltp_db2"])
        assert code == 2
        assert "one of --out, --info or --prune" in capsys.readouterr().err


def test_sweep_and_trace_never_import_numpy(tmp_path):
    """The library is standard-library only: a fresh interpreter running a
    tiny sweep and a verified trace round trip never loads numpy."""
    script = textwrap.dedent(f"""
        import sys
        import repro, repro.sweep, repro.analysis.experiments
        from repro.__main__ import main
        assert main({[*TINY_TRACE_ARGS, "--out", str(tmp_path / "t.trace"), "--verify"]!r}) == 0
        assert main([
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "1", "--instructions-per-core", "3000",
            "--no-cache", "--no-trace-store", "--no-journal",
        ]) == 0
        print("numpy modules:", sorted(
            name for name in sys.modules if name.split(".")[0] == "numpy"
        ))
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "numpy modules: []" in result.stdout


class TestTracePrune:
    def _populated_store(self, tmp_path):
        from repro.sweep import TraceStore
        from repro.workloads import generate_trace, get_profile, synthesize_program

        store = TraceStore(tmp_path / "traces")
        profile = get_profile("oltp_db2").scaled(0.08)
        program = synthesize_program(profile)
        for seed in (1, 2, 3):
            trace = generate_trace(program, 2_000, seed=seed)
            store.put(profile, 2_000, seed, trace)
        return store

    def test_prune_to_zero_empties_the_store(self, tmp_path, capsys):
        store = self._populated_store(tmp_path)
        assert len(list(store.directory.glob("*.trace"))) == 3
        code = main(["trace", "--prune", "0", "--trace-dir", str(store.directory)])
        assert code == 0
        assert "pruned 3 artifacts" in capsys.readouterr().out
        assert list(store.directory.glob("*.trace")) == []

    def test_prune_accepts_size_suffixes(self, tmp_path, capsys):
        store = self._populated_store(tmp_path)
        # 1G comfortably holds three tiny artifacts: nothing is evicted.
        code = main(["trace", "--prune", "1G", "--trace-dir", str(store.directory)])
        assert code == 0
        assert "pruned 0 artifacts" in capsys.readouterr().out
        assert len(list(store.directory.glob("*.trace"))) == 3

    def test_prune_rejects_garbage_sizes(self, capsys):
        code = main(["trace", "--prune", "lots"])
        assert code == 2
        assert "not a byte size" in capsys.readouterr().err

    def test_prune_missing_directory_exits_nonzero(self, tmp_path, capsys):
        # A typoed --trace-dir must be an error with a message, not a silent
        # "pruned 0 artifacts" success (and never a bare traceback).
        missing = tmp_path / "never-created"
        code = main(["trace", "--prune", "0", "--trace-dir", str(missing)])
        assert code == 1
        err = capsys.readouterr().err
        assert "does not exist" in err and str(missing) in err

    def test_prune_missing_env_directory_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "stale"))
        code = main(["trace", "--prune", "1G"])
        assert code == 1
        assert "REPRO_TRACE_DIR" in capsys.readouterr().err

    def test_prune_cannot_combine_with_out(self, tmp_path, capsys):
        code = main([
            "trace", "--prune", "0", "--profile", "oltp_db2",
            "--out", str(tmp_path / "x.trace"),
        ])
        assert code == 2
        assert "--prune cannot be combined" in capsys.readouterr().err


class TestBenchCommand:
    BENCH_ARGS = [
        "bench", "--scale", "0.05", "--instructions", "2000",
        "--repeats", "1", "--designs", "baseline",
    ]

    def test_bench_appends_a_stable_schema_point(self, tmp_path, capsys):
        from repro.perfbench import BENCH_SCHEMA_VERSION

        out = tmp_path / "bench.json"
        code = main(self.BENCH_ARGS + ["--json", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "speedup over reference backend" in captured.out
        trajectory = json.loads(out.read_text())
        assert trajectory["bench"] == "kernel_hotloop"
        payload = trajectory["points"][-1]
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["trace"]["mapped"] is True
        assert payload["designs"][0]["design"] == "baseline"
        assert payload["designs"][0]["backend"] == "scalar"
        assert payload["designs"][0]["regions_per_sec"] > 0
        assert [row["backend"] for row in payload["backends"]] == ["reference", "scalar"]
        assert payload["speedup_over_reference"] > 0
        assert payload["peak_rss_kb"] > 0

    def test_json_appends_to_an_existing_trajectory(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(self.BENCH_ARGS + ["--json", str(out)]) == 0
        assert main(self.BENCH_ARGS + ["--json", str(out)]) == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())["points"]) == 2

    def test_unknown_backend_is_a_usage_error(self, capsys):
        # There is one loop, so bench takes no --backend, not even "scalar".
        for name in ("vector9000", "scalar"):
            with pytest.raises(SystemExit) as exit_info:
                main(self.BENCH_ARGS + ["--backend", name])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_expect_schema_accepts_an_equivalent_run(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(self.BENCH_ARGS + ["--json", str(out)]) == 0
        capsys.readouterr()
        code = main(self.BENCH_ARGS + ["--expect-schema", str(out)])
        assert code == 0
        assert "schema matches" in capsys.readouterr().out

    def test_expect_schema_fails_on_drift(self, tmp_path, capsys):
        from repro.perfbench import BENCH_SCHEMA_VERSION

        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps({"bench": "kernel_hotloop", "points": [{
            "schema": BENCH_SCHEMA_VERSION, "bench": "kernel_hotloop",
            "surprise": True,
        }]}))
        out = tmp_path / "bench.json"
        code = main(self.BENCH_ARGS + ["--expect-schema", str(recorded),
                                       "--json", str(out)])
        assert code == 1
        assert "schema drifted" in capsys.readouterr().err
        # The drifted run must not have been recorded.
        assert not out.exists()

    def test_expect_schema_rejects_a_schema1_point(self, tmp_path, capsys):
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps({"bench": "kernel_hotloop", "points": [
            {"schema": 1, "bench": "kernel_hotloop"},
        ]}))
        code = main(self.BENCH_ARGS + ["--expect-schema", str(recorded)])
        assert code == 1
        assert "schema 1, supported 2.." in capsys.readouterr().err

    def test_committed_trajectory_point_matches_current_schema(self, capsys):
        # BENCH_kernel.json at the repo root is the recorded trajectory; a
        # fresh tiny run must still emit the same schema (the CI perf job's
        # contract, pinned here so it cannot rot unnoticed).
        from pathlib import Path

        committed = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
        assert committed.exists()
        code = main(self.BENCH_ARGS + ["--expect-schema", str(committed)])
        assert code == 0
        assert "schema matches" in capsys.readouterr().out


class TestSweepCommand:
    def test_trace_store_round_trip_via_cli(self, tmp_path, capsys):
        from repro.sweep import clear_workload_memo

        args = [
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "2", "--instructions-per-core",
            "5000", "--no-cache", "--trace-dir", str(tmp_path / "traces"),
            "--json",
        ]
        clear_workload_memo()
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["traces_generated"] == 2

        clear_workload_memo()
        assert main(args + ["--expect-trace-cached"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["traces_generated"] == 0
        assert warm["stats"]["traces_loaded"] == 2
        assert warm["reports"] == cold["reports"]

    def test_expect_trace_cached_fails_cold(self, tmp_path, capsys):
        from repro.sweep import clear_workload_memo

        clear_workload_memo()
        code = main([
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "2", "--instructions-per-core",
            "5000", "--no-cache", "--trace-dir", str(tmp_path / "empty"),
            "--expect-trace-cached",
        ])
        assert code == 1
        assert "--expect-trace-cached" in capsys.readouterr().err

    def test_unusable_trace_dir_exits_nonzero_with_message(self, tmp_path, capsys):
        # $REPRO_TRACE_DIR (or --trace-dir) pointing somewhere that cannot be
        # created — here, under a regular file — must produce a clean error,
        # not a bare NotADirectoryError traceback from deep in the store.
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        from repro.sweep import clear_workload_memo

        clear_workload_memo()
        code = main([
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "1", "--instructions-per-core",
            "5000", "--no-cache", "--trace-dir", str(blocker / "traces"),
        ])
        assert code == 1
        assert "sweep:" in capsys.readouterr().err

    def test_unknown_scenario_exits_with_usage_error(self, capsys):
        code = main([
            "sweep", "--scenarios", "no_such_mix", "--designs", "baseline",
            "--scale", "0.08", "--cores", "2", "--no-cache",
            "--no-trace-store",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "consolidated_oltp_dss" in err

    def test_unknown_backend_exits_with_usage_error(self, capsys):
        # There is one loop, so sweep takes no --backend, not even "scalar".
        for name in ("vector9000", "scalar"):
            with pytest.raises(SystemExit) as exit_info:
                main([
                    "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
                    "--scale", "0.08", "--cores", "1", "--backend", name,
                    "--no-cache", "--no-trace-store",
                ])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be positive"),
        (["--scale", "0"], "scale factor must be positive"),
        (["--scale", "-1"], "scale factor must be positive"),
        (["--cores", "0"], "cores must be at least 1"),
        (["--instructions-per-core", "-5"], "instructions_per_core must be at least 1"),
        (["--instructions-per-core", "0"], "instructions_per_core must be at least 1"),
    ])
    def test_bad_arguments_are_usage_errors_before_any_cell_runs(
        self, flags, message, capsys
    ):
        from repro.faultinject import FaultPlan, active

        # Any cell that started would trip the plan and fail the sweep
        # (exit 1) instead of the usage error (exit 2).
        plan = FaultPlan()
        plan.fail("cell:simulate", error=AssertionError("a cell ran"), attempts=10)
        args = [
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "1", "--instructions-per-core",
            "5000", "--no-cache", "--no-trace-store", "--no-journal",
        ]
        with active(plan):
            code = main(args + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert f"sweep: {message}" in err
        assert "Traceback" not in err
        assert plan.fired == []


def test_backends_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["backends"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "backends" in err


class TestSweepScenarios:
    ARGS = [
        "sweep", "--scenarios", "consolidated_oltp_dss", "--designs",
        "baseline", "--scale", "0.08", "--cores", "4",
        "--instructions-per-core", "5000", "--json",
    ]

    def test_scenario_sweep_round_trip(self, tmp_path, capsys):
        from repro.sweep import clear_workload_memo

        args = self.ARGS + [
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-dir", str(tmp_path / "traces"),
        ]
        clear_workload_memo()
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        report = cold["reports"]["consolidated_oltp_dss"]
        assert report["results"]["baseline"]["core_profiles"] == [
            "oltp_db2", "oltp_db2", "dss_qry2", "dss_qry2",
        ]
        assert cold["stats"]["simulated"] == 1
        assert cold["stats"]["traces_generated"] == 4

        # Warm rerun: the scenario cell memoizes and the store serves every
        # trace — the CI scenario-cache job's contract.
        clear_workload_memo()
        assert main(args + ["--expect-cached", "--expect-trace-cached"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["simulated"] == 0
        assert warm["stats"]["traces_generated"] == 0
        assert warm["reports"] == cold["reports"]

    def test_scenarios_only_sweep_skips_the_profile_default(self, tmp_path, capsys):
        # With --scenarios and no --profiles the sweep must not silently run
        # all eight profiles too.
        from repro.sweep import clear_workload_memo

        clear_workload_memo()
        args = self.ARGS + ["--no-cache", "--trace-dir", str(tmp_path / "traces")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["reports"]) == ["consolidated_oltp_dss"]


class TestSweepResilience:
    ARGS = [
        "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
        "confluence", "--scale", "0.08", "--cores", "2",
        "--instructions-per-core", "5000", "--no-cache", "--no-trace-store",
    ]

    def test_resume_simulates_only_the_missing_cells(self, tmp_path, capsys):
        from repro.sweep import clear_workload_memo

        journal = ["--journal-dir", str(tmp_path / "journal")]
        clear_workload_memo()
        assert main(self.ARGS + journal + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["simulated"] == 2
        # Hard-kill emulation: drop the last journaled cell, then resume.
        journal_file = next((tmp_path / "journal").glob("*.jsonl"))
        lines = journal_file.read_text().splitlines()
        journal_file.write_text("\n".join(lines[:-1]) + "\n")
        clear_workload_memo()
        assert main(self.ARGS + journal + ["--resume", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["stats"]["resumed"] == 1
        assert resumed["stats"]["simulated"] == 1
        assert resumed["reports"] == cold["reports"]
        # A fully journaled sweep resumes without any simulation at all —
        # --expect-cached holds even under --no-cache.
        clear_workload_memo()
        code = main(self.ARGS + journal + ["--resume", "--expect-cached"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 resumed from journal" in out

    def test_stats_output_carries_the_resilience_counters(self, capsys):
        from repro.sweep import clear_workload_memo

        clear_workload_memo()
        assert main(self.ARGS + ["--no-journal", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        for counter in (
            "retried", "timed_out", "quarantined", "resumed", "pool_rebuilds"
        ):
            assert stats[counter] == 0
        clear_workload_memo()
        assert main(self.ARGS + ["--no-journal"]) == 0
        assert "resilience:" in capsys.readouterr().out

    def test_resume_without_a_journal_is_a_usage_error(self, capsys):
        code = main(self.ARGS + ["--no-journal", "--resume"])
        assert code == 2
        assert "--resume requires the journal" in capsys.readouterr().err

    def test_bad_retry_policy_is_a_usage_error(self, capsys):
        code = main(self.ARGS + ["--no-journal", "--retries", "-3"])
        assert code == 2
        assert "sweep:" in capsys.readouterr().err

    def test_failed_sweep_mentions_resume(self, tmp_path, capsys):
        from repro.faultinject import FaultPlan, active
        from repro.sweep import clear_workload_memo

        plan = FaultPlan()
        plan.fail("cell:simulate", match="oltp_db2/confluence", attempts=10)
        clear_workload_memo()
        with active(plan):
            code = main(
                self.ARGS
                + ["--journal-dir", str(tmp_path / "journal"), "--retries", "0"]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "oltp_db2/confluence" in err and "--resume" in err


class TestLintCommand:
    FIXTURES = Path(__file__).resolve().parent / "staticcheck_fixtures"

    def test_default_target_is_the_installed_package(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_fixture_exits_nonzero(self, capsys):
        code = main(["lint", str(self.FIXTURES / "r001_hot_alloc.py")])
        captured = capsys.readouterr()
        assert code == 1
        assert "R001" in captured.out
        assert "finding(s)" in captured.out

    def test_json_schema_is_stable(self, capsys):
        assert main(["lint", "--json", str(self.FIXTURES / "r002")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"schema", "count", "findings"}
        assert payload["schema"] == 1
        assert payload["count"] == len(payload["findings"]) > 0
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "symbol", "message"}
        # Stable ordering: a second run emits the identical payload.
        assert main(["lint", "--json", str(self.FIXTURES / "r002")]) == 1
        assert json.loads(capsys.readouterr().out) == payload

    def test_baseline_round_trip(self, tmp_path, capsys):
        target = str(self.FIXTURES / "r004")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--write-baseline", str(baseline), target]) == 0
        assert "wrote 1 suppression(s)" in capsys.readouterr().out
        # With the baseline applied the same target is clean (exit 0).
        assert main(["lint", "--baseline", str(baseline), target]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "1 baselined" in out

    def test_rule_selection_and_listing(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listing = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005"):
            assert rule_id in listing
        # A rule filter that skips the seeded violation reports clean.
        code = main([
            "lint", str(self.FIXTURES / "r001_hot_alloc.py"), "--rules", "R002",
        ])
        assert code == 0

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", "--rules", "R999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_unreadable_baseline_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["lint", "--baseline", str(missing)]) == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestReportCommand:
    """``python -m repro report``: collection, rendering, the CI gate."""

    def _point(self, scale=1.0):
        return {
            "schema": 2,
            "bench": "kernel_hotloop",
            "config": {"profile": "oltp_db2", "scale": 0.1,
                       "instructions": 20000, "seed": 3, "repeats": 2,
                       "backend": "scalar"},
            "designs": [
                {"design": "baseline", "backend": "scalar",
                 "regions_per_sec": 50_000.0 * scale, "ipc": 0.70},
            ],
            "backends": [
                {"backend": "reference", "design": "baseline",
                 "regions_per_sec": 20_000.0 * scale, "ipc": 0.70},
                {"backend": "scalar", "design": "baseline",
                 "regions_per_sec": 50_000.0 * scale, "ipc": 0.70},
            ],
            "speedup_over_reference": 2.5,
        }

    def _trajectory(self, path, *scales):
        path.write_text(json.dumps({
            "bench": "kernel_hotloop",
            "points": [self._point(scale) for scale in scales],
        }))
        return str(path)

    def test_renders_self_contained_html(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0, 1.05)
        out = tmp_path / "report.html"
        assert main(["report", "--bench", bench, "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<script" not in html

    def test_markdown_to_stdout(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0)
        assert main(["report", "--bench", bench, "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Confluence reproduction report")
        assert "baseline_regions_per_sec" not in out  # single point: no deltas
        assert "| point |" in out

    def test_check_passes_within_tolerance(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0, 0.9)
        code = main(["report", "--bench", bench, "--check",
                     "--tolerance", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "--check: within tolerance 0.5" in out

    def test_check_fails_on_seeded_regression(self, tmp_path, capsys):
        # The acceptance pin: a regressed newest point (30% of baseline)
        # against --tolerance 0.5 must exit non-zero, per backend.
        bench = self._trajectory(tmp_path / "bench.json", 0.3)
        baseline = self._trajectory(tmp_path / "baseline.json", 1.0)
        code = main(["report", "--bench", bench, "--baseline", baseline,
                     "--check", "--tolerance", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSED" in captured.out
        assert "regressed beyond tolerance 0.5" in captured.err

    def test_check_refuses_single_point_without_baseline(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0)
        code = main(["report", "--bench", bench, "--check",
                     "--tolerance", "0.5"])
        assert code == 1
        assert "no baseline" in capsys.readouterr().err

    def test_nonpositive_tolerance_is_a_usage_error(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0)
        code = main(["report", "--bench", bench, "--check", "--tolerance", "0"])
        assert code == 2
        assert "--tolerance must be positive" in capsys.readouterr().err

    def test_defaults_to_committed_trajectory_in_cwd(self, tmp_path,
                                                     monkeypatch, capsys):
        self._trajectory(tmp_path / "BENCH_kernel.json", 1.0, 1.02)
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--format", "md"]) == 0
        assert "BENCH_kernel.json" in capsys.readouterr().out

    def test_nothing_to_collect_is_a_usage_error(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 2
        assert "nothing to collect" in capsys.readouterr().err

    def test_missing_bench_file_errors(self, tmp_path, capsys):
        code = main(["report", "--bench", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot collect" in capsys.readouterr().err

    def test_unknown_format_is_a_usage_error(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0)
        assert main(["report", "--bench", bench, "--format", "pdf"]) == 2
        assert "pdf" in capsys.readouterr().err

    def test_save_bundle_is_content_addressed(self, tmp_path, capsys):
        bench = self._trajectory(tmp_path / "bench.json", 1.0)
        store = tmp_path / "bundles"
        for _ in range(2):
            assert main(["report", "--bench", bench, "--format", "md",
                         "--save-bundle", "--report-dir", str(store)]) == 0
        capsys.readouterr()
        assert len(list(store.glob("*.bundle.json"))) == 1

    def test_collects_sweep_save_report_output(self, tmp_path, capsys):
        # End-to-end through the CLI: a real (tiny) sweep saved with
        # --save-report renders into the report's sweep section.
        from repro.sweep import clear_workload_memo

        saved = tmp_path / "sweep.report.json"
        clear_workload_memo()
        assert main([
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "1", "--instructions-per-core",
            "5000", "--no-cache", "--no-trace-store", "--no-journal",
            "--save-report", str(saved),
        ]) == 0
        assert saved.exists()
        capsys.readouterr()

        bench = self._trajectory(tmp_path / "bench.json", 1.0)
        assert main(["report", "--bench", bench, "--sweep", str(saved),
                     "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "oltp_db2" in out
        assert "| design |" in out

    def test_save_report_json_stdout_stays_pure(self, tmp_path, capsys):
        from repro.sweep import clear_workload_memo

        saved = tmp_path / "sweep.report.json"
        clear_workload_memo()
        assert main([
            "sweep", "--profiles", "oltp_db2", "--designs", "baseline",
            "--scale", "0.08", "--cores", "1", "--instructions-per-core",
            "5000", "--no-cache", "--no-trace-store", "--no-journal",
            "--save-report", str(saved), "--json",
        ]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)  # no "wrote ..." line mixed in
        assert payload["stats"]["cells"] == 1
        from repro.api import load_reports

        reports, stats = load_reports(saved)
        assert reports["oltp_db2"].to_dict() == payload["reports"]["oltp_db2"]
        assert stats == payload["stats"]

"""Tests for the repro.staticcheck invariant analyzer.

Three layers: the rules fire on the seeded fixtures (and only there), the
infrastructure (registry, baseline, inline allows, markers) behaves, and —
the one that matters — the real package lints clean, which is the
machine-checked statement of the hot-loop/determinism/cache-key contracts.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.registry import UnknownComponentError
from repro.staticcheck import (
    RULE_REGISTRY,
    Baseline,
    Finding,
    hot_loop,
    parse_target,
    run_lint,
    run_rules,
)
from repro.staticcheck.markers import HOT_LOOP_ATTRIBUTE

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "staticcheck_fixtures"
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_source(tmp_path, source, name="module.py", rule_ids=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([path], rule_ids=rule_ids)


class TestRepositoryIsClean:
    def test_package_lints_clean(self):
        assert run_lint([SRC]) == []

    def test_kernel_functions_carry_the_marker(self):
        from repro.backends.scalar import ScalarBackend
        from repro.branch.btb_conventional import ConventionalBTB, PerfectBTB
        from repro.branch.btb_two_level import TwoLevelBTB
        from repro.branch.unit import BranchPredictionUnit

        for func in (
            ScalarBackend.run,
            BranchPredictionUnit.predict_region_into,
            ConventionalBTB.lookup_into,
            PerfectBTB.lookup_into,
            TwoLevelBTB.lookup_into,
        ):
            assert getattr(func, HOT_LOOP_ATTRIBUTE, False), func.__qualname__


class TestFixturesTrigger:
    @pytest.mark.parametrize(
        "target, rule",
        [
            ("r001_hot_alloc.py", "R001"),
            ("r002", "R002"),
            ("r003", "R003"),
            ("r004", "R004"),
            ("r005_pkg", "R005"),
            ("r006", "R006"),
        ],
    )
    def test_each_seeded_fixture_fires_its_rule(self, target, rule):
        findings = run_lint([FIXTURES / target])
        assert findings, f"{target} should fire {rule}"
        assert {f.rule for f in findings} == {rule}

    def test_clean_control_has_no_findings(self):
        assert run_lint([FIXTURES / "clean.py"]) == []

    def test_findings_are_sorted_and_structured(self):
        findings = run_lint([FIXTURES / "r002"])
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.rule, f.message)
        )
        for finding in findings:
            payload = finding.to_dict()
            assert set(payload) == {"rule", "path", "line", "symbol", "message"}
            assert finding.render().startswith(f"{finding.path}:{finding.line}:")


class TestRuleBehavior:
    def test_r001_prelude_allocation_is_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.staticcheck.markers import hot_loop

            @hot_loop
            def kernel(items):
                scratch = [0] * 8   # hoisted: before the loop, allowed
                total = 0
                for item in items:
                    total += scratch[item]
                return total
            """,
        )
        assert findings == []

    def test_r001_loop_free_leaf_is_checked_in_full(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.staticcheck.markers import hot_loop

            @hot_loop
            def leaf(slot, value):
                slot.payload = {"value": value}
            """,
        )
        assert [f.rule for f in findings] == ["R001"]
        assert "dict display" in findings[0].message

    def test_r001_flags_object_construction(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.staticcheck.markers import hot_loop

            @hot_loop
            def kernel(items):
                for item in items:
                    box = SomeBox(item)
                    box.poke()
            """,
        )
        assert [f.rule for f in findings] == ["R001"]
        assert "constructs an object" in findings[0].message

    def test_r001_index_tuples_are_tuple_displays(self, tmp_path):
        # table[row, way] builds a key tuple per iteration like any other
        # non-constant tuple display; no hot loop indexes numpy arrays.
        findings = lint_source(
            tmp_path,
            """
            from repro.staticcheck.markers import hot_loop

            @hot_loop
            def kernel(table, row, way, rounds):
                for _ in range(rounds):
                    table[row, way] += 1
                return table
            """,
        )
        assert [f.rule for f in findings] == ["R001"]
        assert "tuple display" in findings[0].message

    def test_r002_seeded_rng_is_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random

            def deal(seed, count):
                rng = random.Random(seed)
                return [rng.randint(0, 100) for _ in range(count)]
            """,
            name="workloads.py",
        )
        assert findings == []

    def test_r002_sorted_listing_is_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os

            def artifacts(root):
                return sorted(os.listdir(root))

            def artifacts_raw(root):
                return os.listdir(root)
            """,
            name="sweep.py",
        )
        assert len(findings) == 1
        assert findings[0].symbol == "artifacts_raw"

    def test_r002_ignores_modules_outside_scope(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            name="reporting.py",
        )
        assert findings == []

    def test_r003_exempts_scenario_description(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Scenario:
                name: str
                description: str

                def bind(self, cores):
                    return (self.name, cores)
            """,
            name="scenario.py",
        )
        assert findings == []

    def test_r003_generic_flattener_covers_everything(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import dataclasses
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CoreWorkload:
                profile: str
                seed: int

            def cell_key(workload):
                return {
                    field.name: getattr(workload, field.name)
                    for field in dataclasses.fields(workload)
                }
            """,
            name="sweep.py",
        )
        assert findings == []

    def test_r004_reducer_class_is_safe(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            class PackedTrace:
                @classmethod
                def from_buffers(cls, buffers):
                    return cls()

                def __reduce__(self):
                    return (PackedTrace, ())

            def ship(buffers, worker):
                trace = PackedTrace.from_buffers(buffers)
                with ProcessPoolExecutor() as pool:
                    return pool.submit(worker, trace).result()
            """,
        )
        assert findings == []

    def test_r005_importing_init_passes(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from pkg import widget  # noqa: F401\n", encoding="utf-8"
        )
        (pkg / "widget.py").write_text(
            textwrap.dedent(
                """
                from repro.registry import BTB_REGISTRY

                @BTB_REGISTRY.register("tmp_widget")
                def build(ctx, **params):
                    return None
                """
            ),
            encoding="utf-8",
        )
        assert run_lint([pkg]) == []
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        findings = run_lint([pkg])
        assert [f.rule for f in findings] == ["R005"]

    def test_r006_bounded_retry_with_deterministic_backoff_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def run_with_retry(job, retries, backoff):
                last = None
                for attempt in range(retries + 1):
                    if attempt:
                        time.sleep(min(backoff * 2.0 ** (attempt - 1), 2.0))
                    try:
                        return job()
                    except OSError as error:
                        last = error
                raise last
            """,
            name="retry.py",
        )
        assert findings == []

    def test_r006_while_true_with_sleep_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def spin(job):
                while True:
                    try:
                        return job()
                    except OSError:
                        time.sleep(0.5)
            """,
            name="retry.py",
        )
        assert [f.rule for f in findings] == ["R006"]
        assert "unbounded" in findings[0].message

    def test_r006_unseeded_jitter_in_sleep_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            import time

            def backoff(attempt):
                time.sleep(0.1 * attempt + random.uniform(0.0, 0.1))
            """,
            name="retry.py",
        )
        assert [f.rule for f in findings] == ["R006"]
        assert "random.uniform" in findings[0].message

    def test_r006_seeded_rng_jitter_is_allowed(self, tmp_path):
        # random.Random(seed) is the sanctioned pattern (R002's contract):
        # a seeded schedule is still a pure function of its inputs.
        findings = lint_source(
            tmp_path,
            """
            import random
            import time

            def backoff(attempt, seed):
                rng = random.Random(seed)
                time.sleep(0.1 * attempt + rng.uniform(0.0, 0.1))
            """,
            name="retry.py",
        )
        assert findings == []

    def test_r006_only_fires_in_scope(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def poll(ready):
                while True:
                    if ready():
                        return
                    time.sleep(0.5)
            """,
            name="monitor.py",
        )
        assert findings == []


class TestSuppression:
    VIOLATION = """
    from repro.staticcheck.markers import hot_loop

    @hot_loop
    def kernel(items):
        for item in items:
            box = [item]{allow}
            box.clear()
    """

    def test_inline_allow_comment_waives_the_line(self, tmp_path):
        noisy = lint_source(tmp_path, self.VIOLATION.format(allow=""))
        assert len(noisy) == 1
        quiet = lint_source(
            tmp_path,
            self.VIOLATION.format(allow="  # staticcheck: allow[R001]"),
        )
        assert quiet == []

    def test_baseline_round_trip(self, tmp_path):
        findings = lint_source(tmp_path, self.VIOLATION.format(allow=""))
        baseline_path = tmp_path / "baseline.json"
        Baseline.dump(findings, baseline_path)
        baseline = Baseline.load(baseline_path)
        assert len(baseline) == 1
        assert all(baseline.suppresses(f) for f in findings)
        path = tmp_path / "module.py"
        assert run_lint([path], baseline=baseline) == []

    def test_baseline_is_line_number_independent(self, tmp_path):
        findings = lint_source(tmp_path, self.VIOLATION.format(allow=""))
        baseline = Baseline(findings)
        moved = Finding(
            rule=findings[0].rule,
            path=findings[0].path,
            line=findings[0].line + 40,
            symbol=findings[0].symbol,
            message=findings[0].message,
        )
        assert baseline.suppresses(moved)

    def test_baseline_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a baseline"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a staticcheck baseline"):
            Baseline.load(path)


class TestRegistry:
    def test_rule_catalog(self):
        assert RULE_REGISTRY.names() == [
            "R001", "R002", "R003", "R004", "R005", "R006",
        ]
        for rule_id in RULE_REGISTRY.names():
            assert RULE_REGISTRY.describe(rule_id)

    def test_custom_rule_registers_and_runs(self, tmp_path):
        @RULE_REGISTRY.register("R901")
        def check_everything_is_fine(package):
            for module in package:
                yield Finding(
                    rule="R901",
                    path=module.relpath,
                    line=1,
                    symbol="<module>",
                    message="custom rule fired",
                )

        try:
            (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
            findings = run_rules(parse_target(tmp_path), ["R901"])
            assert [f.rule for f in findings] == ["R901"]
        finally:
            RULE_REGISTRY.unregister("R901")
        assert "R901" not in RULE_REGISTRY

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            RULE_REGISTRY.register("R001", lambda package: iter(()))

    def test_unknown_rule_raises_with_suggestions(self):
        with pytest.raises(UnknownComponentError, match="R001"):
            RULE_REGISTRY.get("R999")


class TestMarkers:
    def test_hot_loop_is_a_runtime_noop(self):
        def probe():
            return 41

        marked = hot_loop(probe)
        assert marked is probe
        assert getattr(marked, HOT_LOOP_ATTRIBUTE) is True
        assert marked() == 41

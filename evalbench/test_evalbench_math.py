"""Tests of the benchmark's own arithmetic: self time, ratios, result
counting, paper errors and digests.  Run with ``python -m pytest evalbench``."""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_module, "clock", fake)
    return fake


def test_self_time_under_nested_wrappers(clock):
    tracer = Tracer()

    def inner():
        clock.now += 2.0

    wrapped_inner = tracer.timed(inner, "inner")

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 3.0

    tracer.timed(outer, "outer")()
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.inclusive("outer") == pytest.approx(8.0)
    assert tracer.self_time("outer") == pytest.approx(4.0)
    assert tracer.inclusive("inner") == pytest.approx(4.0)
    assert tracer.self_time("inner") == pytest.approx(4.0)


def test_reentered_label_counts_inclusive_time_once(clock):
    tracer = Tracer()

    def recurse(depth):
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.timed(recurse, "btb")
    wrapped(2)
    assert tracer.calls("btb") == 3
    assert tracer.inclusive("btb") == pytest.approx(3.0)
    assert tracer.self_time("btb") == pytest.approx(3.0)


def test_extra_labels_get_inclusive_time_but_not_self_time(clock):
    tracer = Tracer()

    def air_lookup():
        clock.now += 2.0

    air = tracer.timed(air_lookup, ("confluence.airbtb", "branch.btb"))

    def generic_lookup_into():
        clock.now += 1.0
        air()

    tracer.timed(generic_lookup_into, "branch.btb")()
    assert tracer.inclusive("branch.btb") == pytest.approx(3.0)
    assert tracer.self_time("branch.btb") == pytest.approx(1.0)
    assert tracer.inclusive("confluence.airbtb") == pytest.approx(2.0)
    assert tracer.self_time("confluence.airbtb") == pytest.approx(2.0)


def test_wrapper_propagates_exceptions_and_keeps_the_stack_balanced(clock):
    tracer = Tracer()

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    wrapped = tracer.timed(boom, "boom")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer._stack == []
    assert tracer.calls("boom") == 1 and tracer.inclusive("boom") == pytest.approx(1.0)


def test_spans_name_their_parent_and_run(clock):
    tracer = Tracer()
    tracer.run_id = "run-1"
    with tracer.span("workload") as outer_id:
        clock.now += 1.0
        with tracer.span("cell"):
            clock.now += 2.0
    outer, inner = tracer.spans
    assert inner["parent"] == outer_id and outer["parent"] is None
    assert (outer["start"], outer["end"]) == (0.0, 3.0)
    assert (inner["start"], inner["end"]) == (1.0, 3.0)
    assert {outer["run"], inner["run"]} == {"run-1"}


def _child_work(wrapped):
    wrapped()
    wrapped()


@pytest.mark.skipif(sys.platform != "linux", reason="needs fork")
def test_forked_worker_totals_come_back_to_the_parent(tmp_path):
    tracer = Tracer(exchange_dir=tmp_path)
    tracer.installed = True
    wrapped = tracer.timed(lambda: None, "work")
    wrapped()  # parent's own call, before the fork
    tracer.count("parent_only")
    context = multiprocessing.get_context("fork")

    def child():
        _child_work(wrapped)
        tracer.count("sims", 2)
        tracer.add_key("pairs", "a")
        tracer.dump_child()

    process = context.Process(target=child)
    try:
        process.start()
        process.join(timeout=60)
    finally:
        tracer.installed = False  # later forks in this process must not reset it
    assert not process.is_alive() and process.exitcode == 0
    assert tracer.collect_children() == 1
    assert tracer.calls("work") == 3  # 1 in the parent + 2 in the worker
    assert tracer.counts == {"parent_only": 1, "sims": 2}
    assert tracer.keys == {"pairs": {"a"}}
    assert list(tmp_path.glob("worker-*.json")) == []


def test_host_speed_rescales_each_interval_by_its_own_samples():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.samples = [(float(at), ref * 2) for at in range(10)]
    speed.samples += [(float(at), ref) for at in range(10, 20)]
    assert speed.rescale(0.0, 9.0) == pytest.approx(4.5)  # slow host: half the wall time
    assert speed.rescale(10.0, 19.0) == pytest.approx(9.0)
    # Too few samples inside: the MIN_SAMPLES nearest the middle (9.5) are
    # 9, 10, 8, 11 and 7, so the mean is (3 * 2 + 2 * 1) / 5 reference loops.
    assert speed.factor(9.4, 9.6) == pytest.approx(5 / 8)


def test_host_speed_thread_samples_until_stopped():
    speed = hostspeed.HostSpeed().start()
    try:
        while len(speed.samples) < 2:
            speed._stop.wait(hostspeed.INTERVAL_S)
    finally:
        speed.stop()
    assert not speed._thread.is_alive()
    assert all(seconds > 0 for _, seconds in speed.samples)


def test_gen_redundancy_and_distinct_ratio():
    tracer = Tracer()
    tracer.count("workloads.traces_generated", 6)
    for key in ("t1", "t2", "t3", "t1"):
        tracer.add_key("workloads.traces", key)
    tracer.count("analysis.sims", 8)
    for pair in ("p|design:a", "p|design:b", "p|btb:x", "p|design:a"):
        tracer.add_key("analysis.pairs", pair)
    metrics = layers.layer_metrics(tracer, cell_processes=1, retried=0, synthesize_s=0.5)
    assert metrics["workloads.gen_redundancy"] == pytest.approx(2.0)
    assert metrics["analysis.distinct_ratio"] == pytest.approx(3 / 8)
    assert metrics["workloads.synthesize_s"] == 0.5


def test_ratios_are_zero_when_their_layer_did_no_work():
    metrics = layers.layer_metrics(Tracer(), cell_processes=1, retried=0, synthesize_s=0.0)
    assert metrics["analysis.distinct_ratio"] == 0.0
    assert metrics["backends.ns_per_region"] == 0.0
    assert metrics["sweep.sched_s"] == 0.0


def test_sched_time_charges_cell_time_per_process(clock):
    tracer = Tracer()
    tracer.stats["sweep.run_cells"] = [1, 10.0, 1.0, 0]
    tracer.stats["cmp.design.baseline"] = [2, 8.0, 8.0, 0]
    tracer.stats["cmp.design.confluence"] = [2, 8.0, 8.0, 0]
    serial = layers.layer_metrics(tracer, cell_processes=1, retried=0, synthesize_s=0.0)
    pooled = layers.layer_metrics(tracer, cell_processes=2, retried=0, synthesize_s=0.0)
    assert serial["sweep.sched_s"] == pytest.approx(10.0 - 16.0)
    assert pooled["sweep.sched_s"] == pytest.approx(10.0 - 8.0)


def test_results_are_counted_per_entry():
    assert workloads.study_results("fig01", {str(c): 1.0 for c in range(6)}) == 6
    fig08 = {"capacity": 0.1, "spatial_locality": 0.2, "prefetching": 0.3,
             "block_based_org": 0.4, "baseline_mpki": 9.0}
    assert workloads.study_results("fig08", fig08) == 4
    assert workloads.study_results("tab02", {"static": 3.0, "dynamic": 1.5}) == 1
    per_profile = sum(
        workloads.study_results(name, table)
        for name, table in (("fig02", dict.fromkeys(workloads.FIG02_DESIGNS)),
                            ("fig06", dict.fromkeys(workloads.FIG06_DESIGNS)),
                            ("fig07", dict.fromkeys(workloads.FIG07_DESIGNS)))
    )
    assert per_profile == 6 + 7 + 5  # duplicates across figures all count


def test_grid_results_are_counted_per_core():
    from repro.sweep import SweepCell
    from repro.core.designs import resolve_design
    from repro.workloads.profiles import get_profile
    from repro.workloads.scenario import resolve_scenario

    profile = get_profile("oltp_db2").scaled(0.45)
    cell = SweepCell(profile=profile, spec=resolve_design("baseline"), cores=2,
                     instructions_per_core=40_000, trace_seed_base=7)
    assert workloads._core_workloads(cell) == [(profile, 7, 40_000), (profile, 8, 40_000)]
    bound = resolve_scenario("consolidated_oltp_dss").bind(
        cores=8, scale=0.45, instructions_per_core=40_000, trace_seed_base=7)
    scenario_cell = SweepCell(profile=bound, spec=resolve_design("baseline"), cores=8,
                              instructions_per_core=40_000, trace_seed_base=7)
    assert len(workloads._core_workloads(scenario_cell)) == 8


def test_head_instructions_cuts_at_the_first_region_reaching_the_limit():
    from repro.workloads import generate_trace, get_profile, synthesize_program

    program = synthesize_program(get_profile("oltp_db2").scaled(0.05))
    trace = generate_trace(program, 3000, seed=3)
    cut = workloads.head_instructions(trace, 1000)
    assert cut.instruction_count >= 1000
    assert cut.instruction_count - cut.packed.instruction_counts[-1] < 1000
    assert workloads.head_instructions(trace, 10**9).instruction_count == trace.instruction_count


def _summary(ipc, instructions=1000.0):
    cycles = instructions / ipc
    return {"ipc": ipc, "instructions": instructions, "cycles": cycles, "core_ipc": [ipc],
            "btb_mpki": 2.0, "per_profile": {"p": {"cycles": cycles}}}


def test_grid_paper_err_is_the_mean_speedup_error():
    designs = {"baseline": 1.0, "fdp": 1.05, "2level_fdp": 1.16, "2level_shift": 1.22,
               "ideal": 1.35, "confluence": 1.0}
    summaries = {f"{profile}/{design}": _summary(ipc)
                 for profile in ("a", "b") for design, ipc in designs.items()}
    expected = abs(1.0 - checks.PAPER_SPEEDUPS["confluence"]) / len(checks.PAPER_SPEEDUPS)
    assert checks.grid_paper_err(summaries, ["a", "b"]) == pytest.approx(expected)
    assert checks.grid_paper_err(summaries, ["missing"]) is None


def test_coverage_paper_errs():
    rows = [{"phantombtb": 0.5, "airbtb": 0.9, "conventional_16k": 0.9},
            {"phantombtb": 0.7, "airbtb": 0.9, "conventional_16k": 1.0}]
    expected = (abs(0.6 - 0.61) + abs(0.9 - 0.93) + abs(0.95 - 0.95)) / 3
    assert checks.coverage_paper_err(rows) == pytest.approx(expected)
    summaries = {"s/baseline": dict(_summary(1.0), btb_mpki=10.0),
                 "s/confluence": dict(_summary(1.0), btb_mpki=1.0)}
    assert checks.airbtb_paper_err(summaries, iter(["s"])) == pytest.approx(abs(0.9 - 0.93))


def test_summary_and_ideal_invariants():
    good = _summary(0.8)
    assert checks.summary_violations(good) == []
    broken = dict(good, cycles=good["cycles"] + 5)
    assert "chip cycles != sum of per-profile cycles" in checks.summary_violations(broken)
    grid = {"p/baseline": _summary(0.7), "p/ideal": _summary(0.9), "p/fdp": _summary(0.95)}
    assert list(checks.ideal_violations(grid)) == ["p/fdp"]


def test_frontend_invariants():
    from repro.core.frontend import FrontendResult

    result = FrontendResult(design="d", workload="w", instructions=100, base_cycles=100.0,
                            misfetch_stall_cycles=8, l1i_stall_cycles=20)
    assert checks.frontend_violations(result, base_cpi=1.0) == []
    assert checks.frontend_violations(result, base_cpi=2.0) == [
        "base cycles != instructions x base CPI"]
    negative = FrontendResult(design="d", workload="w", instructions=100, base_cycles=100.0,
                              l1i_stall_cycles=-1)
    assert checks.frontend_violations(negative, base_cpi=1.0)


def test_digest_is_stable_and_sensitive():
    data = {"b": [1, 2.5], "a": {"x": 0.1}}
    assert checks.digest(data) == checks.digest({"a": {"x": 0.1}, "b": [1, 2.5]})
    assert checks.digest(data) != checks.digest({"b": [1, 2.5], "a": {"x": 0.1 + 1e-15}})


def test_digest_is_stable_across_simulation_runs():
    from repro.workloads import generate_trace, get_profile, synthesize_program

    program = synthesize_program(get_profile("web_frontend").scaled(0.05))
    trace = generate_trace(program, 3000, seed=5)
    study = workloads._comparison(("baseline", "confluence"))
    assert checks.digest(study(program, trace)) == checks.digest(study(program, trace))

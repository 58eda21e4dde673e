"""The benchmark's three workloads, each a closed loop through the public API.

One iteration of a workload is one caller issuing one sweep (or one list of
figure studies) and waiting for it.  Every iteration starts cold: empty
in-process memos (the caller re-synthesizes the programs as set-up) and
fresh result-cache, trace-store and journal directories.

All three run the evaluation profiles at scale 0.45, where the working set
pressures the 1K-entry BTB and the 32 KB L1-I.  A trace is requested at
40,000 instructions; the generator always completes the request it is in,
so grid traces hold one whole request (roughly 50k-135k instructions,
depending on profile and seed).  Figure traces are cut to their first
20,000 instructions, so each profile's studies do the same amount of work
for every seed, and a run fits several iterations.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import checks
from repro.analysis import experiments
from repro.analysis.experiments import GRID_DESIGNS, SCENARIO_SET
from repro.sweep import SweepCell, TraceStore, run_sweep
from repro.workloads import generator
from repro.workloads.cfg import workload_program
from repro.workloads.packed import load_packed
from repro.workloads.profiles import EVALUATION_WORKLOADS, WorkloadProfile, get_profile
from repro.workloads.scenario import BoundScenario, resolve_scenario
from repro.workloads.trace import Trace

SCALE = 0.45
TRACE_INSTRUCTIONS = 40_000
FIGURE_TRACE_INSTRUCTIONS = 20_000
EVALUATION_PROFILES: Tuple[str, ...] = tuple(dict.fromkeys(EVALUATION_WORKLOADS.values()))

#: ``study(profile, item)`` -> context manager around one figure study; the
#: traced pass uses it to open a span and attribute simulations.
StudyHook = Callable[[str, str], ContextManager[Any]]


def no_study_hook(profile: str, item: str) -> ContextManager[Any]:
    return contextlib.nullcontext()


@dataclasses.dataclass
class Outcome:
    """What one iteration delivered."""

    #: item name -> every simulated statistic of the item, as plain data.
    items: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: item name -> why it failed (raised, or failed an output check).
    failed: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Instructions delivered: per result, its trace's instructions.
    instructions: int = 0
    paper_err: Optional[float] = None
    retried: int = 0
    cells: List[SweepCell] = dataclasses.field(default_factory=list)


def _scaled(names: Tuple[str, ...]) -> List[WorkloadProfile]:
    return [get_profile(name).scaled(SCALE) for name in names]


class _GridWorkload:
    """A ``run_sweep`` grid; one item per (workload, design) cell."""

    name = ""
    designs: Tuple[str, ...] = ()
    cores = 0
    workers = 1

    def items(self, seed: int) -> List[str]:
        return [f"{workload}/{design}" for workload in self.rows(seed) for design in self.designs]

    def rows(self, seed: int) -> List[str]:
        raise NotImplementedError

    def sweep_kwargs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def paper_err(self, summaries: Dict[str, Any], seed: int) -> Optional[float]:
        raise NotImplementedError

    def run(self, seed: int, workdir: Path, study: StudyHook = no_study_hook) -> Outcome:
        sweep = run_sweep(
            designs=self.designs,
            scale=SCALE,
            cores=self.cores,
            instructions_per_core=TRACE_INSTRUCTIONS,
            trace_seed_base=seed,
            workers=self.workers,
            cache=workdir / "cache",
            trace_store=workdir / "traces",
            journal=workdir / "journal",
            **self.sweep_kwargs(seed),
        )
        outcome = Outcome(retried=sweep.stats.retried, cells=sweep.cells)
        for (workload, design), summary in sweep.summaries.items():
            item = f"{workload}/{design}"
            outcome.items[item] = summary
            problems = checks.summary_violations(summary)
            if problems:
                outcome.failed[item] = "; ".join(problems)
        return outcome

    def finish(self, outcome: Outcome, workdir: Path, seed: int) -> None:
        """Untimed: output checks, paper error and delivered instructions."""
        outcome.paper_err = self.paper_err(outcome.items, seed)
        store = TraceStore(workdir / "traces")
        lengths: Dict[Path, int] = {}
        for cell in outcome.cells:
            for profile, trace_seed, instructions in _core_workloads(cell):
                path = store.path_for(profile, instructions, trace_seed)
                if path not in lengths:
                    lengths[path] = load_packed(path).instruction_count
                outcome.instructions += lengths[path]


def _core_workloads(cell: SweepCell) -> List[Tuple[WorkloadProfile, int, int]]:
    """(profile, trace seed, requested instructions) of each core of a cell."""
    if isinstance(cell.profile, BoundScenario):
        return [(core.profile, core.seed, core.instructions) for core in cell.profile]
    return [
        (cell.profile, cell.trace_seed_base + core, cell.instructions_per_core)
        for core in range(cell.cores)
    ]


class PaperGrid(_GridWorkload):
    """The paper's evaluation grid: 5 profiles x the 6 ``GRID_DESIGNS``."""

    name = "paper_grid"
    designs = GRID_DESIGNS
    cores = 2  # core 0 records the SHIFT history, core 1 replays it
    workers = 1

    def profiles(self, seed: int) -> List[WorkloadProfile]:
        return _scaled(EVALUATION_PROFILES)

    def rows(self, seed: int) -> List[str]:
        return list(EVALUATION_PROFILES)

    def sweep_kwargs(self, seed: int) -> Dict[str, Any]:
        return {"profiles": EVALUATION_PROFILES}

    def run(self, seed: int, workdir: Path, study: StudyHook = no_study_hook) -> Outcome:
        outcome = super().run(seed, workdir, study)
        for item, reason in checks.ideal_violations(outcome.items).items():
            outcome.failed.setdefault(item, reason)
        return outcome

    def paper_err(self, summaries: Dict[str, Any], seed: int) -> Optional[float]:
        return checks.grid_paper_err(summaries, EVALUATION_PROFILES)


class Consolidation(_GridWorkload):
    """The consolidated-server scenarios x (baseline, Confluence), pooled."""

    name = "consolidation"
    designs = ("baseline", "confluence")
    cores = 8
    workers = 2

    def _bound(self, seed: int) -> List[BoundScenario]:
        return [
            resolve_scenario(name).bind(
                cores=self.cores,
                scale=SCALE,
                instructions_per_core=TRACE_INSTRUCTIONS,
                trace_seed_base=seed,
            )
            for name in SCENARIO_SET
        ]

    def profiles(self, seed: int) -> List[WorkloadProfile]:
        distinct: Dict[WorkloadProfile, None] = {}
        for scenario in self._bound(seed):
            for core in scenario:
                distinct[core.profile] = None
        return list(distinct)

    def rows(self, seed: int) -> List[str]:
        return list(SCENARIO_SET)

    def sweep_kwargs(self, seed: int) -> Dict[str, Any]:
        return {"profiles": [], "scenarios": SCENARIO_SET}

    def paper_err(self, summaries: Dict[str, Any], seed: int) -> Optional[float]:
        return checks.airbtb_paper_err(summaries, SCENARIO_SET)


# --------------------------------------------------------------------------- #
# Figure suite
# --------------------------------------------------------------------------- #

#: The design lists of the Fig 2, 6 and 7 benchmarks.
FIG02_DESIGNS = ("baseline", "fdp", "phantom_fdp", "2level_fdp", "2level_shift", "ideal")
FIG06_DESIGNS = (
    "baseline", "fdp", "phantom_fdp", "2level_fdp", "2level_shift", "confluence", "ideal",
)
FIG07_DESIGNS = ("baseline", "phantom_shift", "2level_shift", "confluence", "idealbtb_shift")


def _comparison(designs: Tuple[str, ...]) -> Callable[[Any, Trace], Dict[str, Any]]:
    def study(program: Any, trace: Trace) -> Dict[str, Any]:
        outcomes = experiments.frontend_comparison(program, trace, designs)
        return {
            name: {**dataclasses.asdict(outcome.result), "area_mm2": outcome.area.total_mm2}
            for name, outcome in outcomes.items()
        }
    return study


def _keys_to_str(table: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        "x".join(map(str, key)) if isinstance(key, tuple) else str(key): value
        for key, value in table.items()
    }


#: (item suffix, study) in the order the figures appear in the paper.
STUDIES: Tuple[Tuple[str, Callable[[Any, Trace], Dict[str, Any]]], ...] = (
    ("fig01", lambda program, trace: _keys_to_str(experiments.btb_capacity_sweep(trace))),
    ("fig02", _comparison(FIG02_DESIGNS)),
    ("fig06", _comparison(FIG06_DESIGNS)),
    ("fig07", _comparison(FIG07_DESIGNS)),
    ("fig08", lambda program, trace: experiments.airbtb_ablation(program, trace)),
    ("fig09", lambda program, trace: experiments.miss_coverage_comparison(program, trace)),
    ("fig10", lambda program, trace: _keys_to_str(experiments.airbtb_sensitivity(program, trace))),
    ("tab02", lambda program, trace: experiments.branch_density_table(program, trace)),
)

#: Studies whose values are shares of the baseline BTB's misses eliminated.
COVERAGE_STUDIES = ("fig08", "fig09", "fig10")


def study_results(study: str, table: Dict[str, Any]) -> int:
    """Results a study delivers: one per (design or BTB configuration) entry.

    Fig 8's ``baseline_mpki`` is the reference, not an entry; Table 2 is
    one row per profile.
    """
    if study == "tab02":
        return 1
    return len(table) - ("baseline_mpki" in table)


def head_instructions(trace: Trace, limit: int) -> Trace:
    """The shortest prefix of ``trace`` holding at least ``limit`` instructions."""
    total = 0
    for index, count in enumerate(trace.packed.instruction_counts):
        total += count
        if total >= limit:
            return trace.head(index + 1)
    return trace


class FigureSuite:
    """The single-core figure harnesses over the 5 evaluation profiles."""

    name = "figure_suite"

    def profiles(self, seed: int) -> List[WorkloadProfile]:
        return _scaled(EVALUATION_PROFILES)

    def items(self, seed: int) -> List[str]:
        return [f"{profile}/{study}" for profile in EVALUATION_PROFILES for study, _ in STUDIES]

    def run(self, seed: int, workdir: Path, study: StudyHook = no_study_hook) -> Outcome:
        outcome = Outcome()
        for profile in self.profiles(seed):
            program = workload_program(profile)
            try:
                trace = head_instructions(
                    generator.generate_trace(program, FIGURE_TRACE_INSTRUCTIONS, seed=seed,
                                             name=profile.name),
                    FIGURE_TRACE_INSTRUCTIONS,
                )
            except Exception as error:  # every study of the profile fails
                for name, _ in STUDIES:
                    outcome.failed[f"{profile.name}/{name}"] = repr(error)
                continue
            size = trace.instruction_count
            for name, run_study in STUDIES:
                item = f"{profile.name}/{name}"
                try:
                    with study(profile.name, item):
                        table = run_study(program, trace)
                except Exception as error:
                    outcome.failed[item] = repr(error)
                    continue
                outcome.items[item] = table
                outcome.instructions += study_results(name, table) * size
        return outcome

    def finish(self, outcome: Outcome, workdir: Path, seed: int) -> None:
        for item, table in outcome.items.items():
            if item.rsplit("/", 1)[1] in COVERAGE_STUDIES:
                beyond = [key for key, value in table.items()
                          if key != "baseline_mpki" and value > 1.0]
                if beyond:
                    outcome.failed.setdefault(item, f"coverage above 1 for {beyond}")
        coverages = [
            table for item, table in outcome.items.items() if item.endswith("/fig09")
        ]
        if len(coverages) == len(EVALUATION_PROFILES):
            outcome.paper_err = checks.coverage_paper_err(coverages)


WORKLOADS = {workload.name: workload for workload in (PaperGrid(), FigureSuite(), Consolidation())}

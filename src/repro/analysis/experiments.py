"""Experiment implementations, one per table/figure of the evaluation.

Every function takes an already-built workload (program + trace) so callers
control the scale: the benchmark harness uses full-size workloads, the tests
use small scaled-down ones.

Sweeps are data: each variant is a :class:`~repro.core.designs.DesignSpec`
derived from the catalog with parameter overrides, run through the same
spec-driven construction path (:func:`~repro.core.designs.design_from_spec`)
as everything else.  Bare-BTB studies build their components through
:func:`repro.registry.build_btb`, so a custom registered BTB can join any
sweep without new harness code.

The figures compare design points on the same traces, so every simulation a
study owns reads through one **study memo** on the trace's
:class:`~repro.workloads.packed.PackedTrace`.  A design run is keyed on the
caller's program object, the warm-up and :func:`repro.sweep.design_closure`
without the spec's name; a bare-BTB run on :func:`repro.sweep.btb_closure`,
the program it was built with and the warm-up.  Each distinct configuration
simulates once per trace, and a hit is a copy re-stamped with the requested
design and trace names.  The memo is never pickled and dies with the trace;
like :func:`~repro.sweep.cell_key` it does not hash the classes a factory
calls, so a test that monkeypatches a component must use a fresh trace.
:func:`run_btb_coverage` is not memoized: it trains a BTB the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.api import RunReport, run_grid
from repro.branch.btb_base import BaseBTB
from repro.branch.unit import PredictionSlot
from repro.core.airbtb import AirBTBConfig
from repro.core.area import FrontendAreaReport
from repro.core.designs import (
    DesignSpec,
    design_from_spec,
    resolve_design,
)
from repro.core.frontend import (
    DEFAULT_WARMUP_FRACTION,
    FrontendResult,
    check_warmup_fraction,
)
from repro.core.metrics import geometric_mean, miss_coverage, mpki
from repro.registry import build_btb, ensure_unique_names
from repro.staticcheck.markers import hot_loop
from repro.sweep import btb_closure, content_key, design_closure
from repro.workloads.cfg import SyntheticProgram
from repro.workloads.profiles import EVALUATION_WORKLOADS
from repro.workloads.trace import Trace

#: Spec of the 1K-entry + victim-buffer BTB every coverage study is
#: normalized against (the paper's baseline).
BASELINE_BTB = "conventional_1k"

_T = TypeVar("_T")


# --------------------------------------------------------------------------- #
# The per-trace study memo
# --------------------------------------------------------------------------- #

def _memoized(
    trace: Trace,
    payload: Dict[str, object],
    program: Optional[SyntheticProgram],
    simulate: Callable[[], _T],
) -> _T:
    """``simulate()``'s value for ``payload`` on ``trace``, computed once.

    ``payload`` names the program by ``id``; the hit also requires the
    stored program to be ``program`` itself, since a program is an
    unhashable dataclass.  The memo holds a reference to the program, so
    its ``id`` cannot be reused while the entry lives.
    """
    memo = trace.packed._study_memo
    key = content_key({**payload, "program": id(program)})
    entry = memo.get(key)
    if entry is None or entry[0] is not program:
        entry = (program, simulate())
        memo[key] = entry
    return cast(_T, entry[1])


def _btb_coverage(
    name: str,
    trace: Trace,
    warmup_fraction: float,
    program: Optional[SyntheticProgram] = None,
    **params: Any,
) -> Tuple[int, int]:
    """:func:`run_btb_coverage` of a fresh registry BTB, via the study memo."""
    payload = {
        **btb_closure(name, params),
        "warmup_fraction": check_warmup_fraction(warmup_fraction),
    }
    return _memoized(trace, payload, program, lambda: run_btb_coverage(
        build_btb(name, program=program, **params), trace, warmup_fraction
    ))


def _run_design(
    spec: DesignSpec,
    program: SyntheticProgram,
    trace: Trace,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Tuple[FrontendResult, FrontendAreaReport]:
    """Simulate ``spec`` on ``trace`` via the study memo.

    The result and area report are fresh copies carrying ``spec.name`` and
    ``trace.name``, so a caller may mutate them freely.
    """
    closure = design_closure(spec)
    content = cast(Dict[str, object], closure["design"])
    del content["name"], content["label"]

    def simulate() -> Tuple[FrontendResult, FrontendAreaReport]:
        simulator, area = design_from_spec(spec, program)
        return simulator.run(trace, warmup_fraction=warmup_fraction), area

    payload = {**closure, "warmup_fraction": check_warmup_fraction(warmup_fraction)}
    result, area = _memoized(trace, payload, program, simulate)
    return (
        replace(result, design=spec.name, workload=trace.name),
        FrontendAreaReport(design=spec.name, components_mm2=dict(area.components_mm2)),
    )


# --------------------------------------------------------------------------- #
# BTB-only coverage harness (Figures 1, 8, 9, 10)
# --------------------------------------------------------------------------- #

@hot_loop
def run_btb_coverage(
    btb: BaseBTB,
    trace: Trace,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Tuple[int, int]:
    """Drive a standalone BTB with the trace's branch stream.

    Returns ``(taken_misses, measured_instructions)`` for the post-warmup
    portion, following the paper's miss definition (entry for a predicted
    taken branch absent at lookup time).  The walk reads the packed columns
    directly and has the BTB answer through
    :meth:`~repro.branch.btb_base.BaseBTB.lookup_into` into one reusable
    :class:`~repro.branch.unit.PredictionSlot`, as the ``scalar`` loop
    does, so it builds no record or lookup-result objects (a BTB without
    its own ``lookup_into`` still answers through its ``lookup``).
    ``btb`` is the caller's and ends the walk trained, so this driver is
    never memoized.
    """
    from repro.workloads.packed import NO_VALUE, kind_from_code

    packed = trace.packed
    boundary = int(len(packed) * check_warmup_fraction(warmup_fraction))
    taken_misses = 0
    instructions = 0
    slot = PredictionSlot()
    lookup_into = btb.lookup_into
    update = btb.update
    for index, (count, branch_pc, code, taken_flag, target) in enumerate(
        zip(
            packed.instruction_counts,
            packed.branch_pcs,
            packed.kinds,
            packed.takens,
            packed.targets,
            strict=True,
        )
    ):
        measured = index >= boundary
        if measured:
            instructions += count
        if branch_pc == NO_VALUE:
            continue
        taken = bool(taken_flag)
        lookup_into(slot, branch_pc, taken)
        if measured and taken and not slot.btb_hit:
            taken_misses += 1
        update(
            branch_pc,
            kind_from_code(code),
            target if target != NO_VALUE else None,
            taken,
        )
    return taken_misses, instructions


def btb_capacity_sweep(
    trace: Trace,
    capacities: Sequence[int] = (1024, 2048, 4096, 8192, 16384, 32768),
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Dict[int, float]:
    """Figure 1: BTB MPKI as a function of conventional BTB capacity."""
    series: Dict[int, float] = {}
    for capacity in capacities:
        misses, instructions = _btb_coverage(
            "conventional", trace, warmup_fraction,
            entries=capacity, victim_entries=0,
        )
        series[capacity] = mpki(misses, instructions)
    return series


def branch_density_table(program: SyntheticProgram, trace: Trace) -> Dict[str, float]:
    """Table 2: static and dynamic branch density of demand-fetched blocks.

    Static counts the branch instructions present in each block touched by
    the trace (what a predecoder sees); dynamic counts the distinct taken
    branches exercised per block visit episode (what the BTB actually needs).
    """
    touched = set(trace.packed.iter_blocks())
    static_total = 0
    counted = 0
    for block_addr in touched:
        block = program.image.get(block_addr)
        if block is None:
            continue
        static_total += block.branch_count
        counted += 1
    densities = trace.branch_density()
    return {
        "static": static_total / counted if counted else 0.0,
        "dynamic": densities["dynamic"],
    }


# --------------------------------------------------------------------------- #
# Frontend performance/area comparisons (Figures 2, 6, 7)
# --------------------------------------------------------------------------- #

@dataclass
class DesignOutcome:
    """Performance and area of one design point on one workload."""

    design: str
    result: FrontendResult
    area: FrontendAreaReport


def frontend_comparison(
    program: SyntheticProgram,
    trace: Trace,
    designs: Sequence[Union[str, DesignSpec]],
) -> Dict[str, DesignOutcome]:
    """Run a set of design points on one workload (Figures 2, 6 and 7).

    ``designs`` may mix catalog names and ad-hoc specs, each with a unique
    name.  Each design point gets private structures (one core's view);
    SHIFT-based designs each get their own history warmed by the same
    trace, which is equivalent to the steady-state shared history of the
    CMP.
    """
    specs = [resolve_design(design) for design in designs]
    ensure_unique_names("design", [spec.name for spec in specs])
    outcomes: Dict[str, DesignOutcome] = {}
    for spec in specs:
        result, area = _run_design(spec, program, trace)
        outcomes[spec.name] = DesignOutcome(design=spec.name, result=result, area=area)
    return outcomes


def performance_area_frontier(
    outcomes: Mapping[str, DesignOutcome],
    baseline: str = "baseline",
) -> List[Dict[str, float]]:
    """Normalize a comparison to the baseline design (the Figure 2/6 axes)."""
    base = outcomes[baseline]
    rows: List[Dict[str, float]] = []
    for name, outcome in outcomes.items():
        rows.append(
            {
                "design": name,
                "relative_performance": outcome.result.speedup_over(base.result),
                "relative_area": outcome.area.relative_to(base.area),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# AirBTB coverage studies (Figures 8, 9, 10)
# --------------------------------------------------------------------------- #

def confluence_variant(
    name: str,
    synchronized: bool = True,
    **airbtb_params: Any,
) -> DesignSpec:
    """A Confluence design-spec variant with AirBTB parameter overrides.

    The building block of the Figure 8/10 studies: each studied
    configuration is one spec, so sweeps are data.  Overrides equal to the
    :class:`~repro.core.airbtb.AirBTBConfig` defaults and
    ``synchronized=True`` are dropped, so a variant that builds
    ``confluence`` carries ``confluence``'s content and shares its study
    memo entry.
    """
    defaults = AirBTBConfig()
    default_fields = {field.name for field in fields(AirBTBConfig)}
    btb_params = {
        key: value
        for key, value in airbtb_params.items()
        if key not in default_fields or value != getattr(defaults, key)
    }
    if not synchronized:
        btb_params["synchronized"] = False
    return resolve_design("confluence").derive(name, btb_params=btb_params)


def run_design_coverage(
    design: Union[str, DesignSpec],
    program: SyntheticProgram,
    trace: Trace,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Tuple[int, int]:
    """Measure a full design point's BTB taken misses on one workload."""
    result, _ = _run_design(
        resolve_design(design), program, trace, warmup_fraction=warmup_fraction
    )
    return result.btb_taken_misses, result.instructions


def airbtb_ablation(
    program: SyntheticProgram,
    trace: Trace,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Dict[str, float]:
    """Figure 8: cumulative breakdown of AirBTB's miss-coverage benefits.

    Returns the cumulative fraction of the 1K-entry conventional BTB's misses
    eliminated after enabling, in order: the block-based capacity benefit,
    eager (spatial-locality) insertion, prefetcher-driven insertion, and full
    block-based organization (content synchronization with the L1-I).
    """
    baseline_misses, instructions = _btb_coverage(BASELINE_BTB, trace, warmup_fraction)

    # Steps 1 and 2 drive a standalone AirBTB (no prefetcher around it);
    # steps 3 and 4 are full Confluence design points.
    capacity_misses, _ = _btb_coverage(
        "airbtb_standalone", trace, warmup_fraction,
        program=program, insertion_policy="demand",
    )
    spatial_misses, _ = _btb_coverage(
        "airbtb_standalone", trace, warmup_fraction, program=program
    )

    steps = {
        "prefetching": confluence_variant("airbtb_unsynced", synchronized=False),
        "block_based_org": confluence_variant("airbtb_synced", synchronized=True),
    }
    coverage = {
        "capacity": miss_coverage(baseline_misses, capacity_misses),
        "spatial_locality": miss_coverage(baseline_misses, spatial_misses),
    }
    for step, spec in steps.items():
        misses, _ = run_design_coverage(spec, program, trace, warmup_fraction)
        coverage[step] = miss_coverage(baseline_misses, misses)
    coverage["baseline_mpki"] = mpki(baseline_misses, instructions)
    return coverage


def miss_coverage_comparison(
    program: SyntheticProgram,
    trace: Trace,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Dict[str, float]:
    """Figure 9: misses eliminated by PhantomBTB, AirBTB and a 16K BTB."""
    baseline_misses, _ = _btb_coverage(BASELINE_BTB, trace, warmup_fraction)
    phantom_misses, _ = _btb_coverage("phantom", trace, warmup_fraction)
    airbtb_misses, _ = run_design_coverage(
        confluence_variant("airbtb_synced"), program, trace, warmup_fraction
    )
    # Spelled exactly as Figure 1's 16K point, so the two share a memo entry.
    big_misses, _ = _btb_coverage(
        "conventional", trace, warmup_fraction, entries=16 * 1024, victim_entries=0
    )

    return {
        "phantombtb": miss_coverage(baseline_misses, phantom_misses),
        "airbtb": miss_coverage(baseline_misses, airbtb_misses),
        "conventional_16k": miss_coverage(baseline_misses, big_misses),
    }


def airbtb_sensitivity(
    program: SyntheticProgram,
    trace: Trace,
    bundle_sizes: Sequence[int] = (3, 4),
    overflow_sizes: Sequence[int] = (0, 32),
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> Dict[Tuple[int, int], float]:
    """Figure 10: AirBTB miss coverage vs bundle and overflow buffer sizing.

    The sweep is a grid of derived specs; add a point by adding a value to
    either axis.
    """
    baseline_misses, _ = _btb_coverage(BASELINE_BTB, trace, warmup_fraction)
    grid: Dict[Tuple[int, int], DesignSpec] = {
        (branches, overflow): confluence_variant(
            f"airbtb_b{branches}_ob{overflow}",
            branch_entries_per_bundle=branches,
            overflow_entries=overflow,
        )
        for branches in bundle_sizes
        for overflow in overflow_sizes
    }
    results: Dict[Tuple[int, int], float] = {}
    for key, spec in grid.items():
        misses, _ = run_design_coverage(spec, program, trace, warmup_fraction)
        results[key] = miss_coverage(baseline_misses, misses)
    return results


# --------------------------------------------------------------------------- #
# CMP-level grid studies (profile x design, through the sweep engine)
# --------------------------------------------------------------------------- #

#: The design points the paper's CMP-level performance figures compare.
GRID_DESIGNS: Tuple[str, ...] = (
    "baseline", "fdp", "2level_fdp", "2level_shift", "confluence", "ideal",
)


def evaluation_grid(
    designs: Sequence[Union[str, DesignSpec]] = GRID_DESIGNS,
    profiles: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
    **sweep_kwargs: Any,
) -> Dict[str, RunReport]:
    """The paper's workload x design CMP grid, on the parallel sweep engine.

    This is the layer every grid-shaped scenario runs through:
    ``workers=N`` fans the (profile x design) cells out across processes and
    ``cache=...`` serves unchanged cells from the on-disk result cache (see
    :mod:`repro.sweep`).  ``profiles`` defaults to the five evaluation
    workloads; the remaining keyword arguments (``scale``, ``cores``,
    ``instructions_per_core``, ...) apply to every cell.
    """
    if profiles is None:
        # The evaluation suite's representative profiles, de-duplicated in
        # presentation order.
        profiles = list(dict.fromkeys(EVALUATION_WORKLOADS.values()))
    return run_grid(profiles, designs, baseline=baseline, **sweep_kwargs)


def grid_speedup_rows(
    reports: Mapping[str, RunReport],
) -> List[Dict[str, object]]:
    """Per-design speedup rows (one column per profile + GEOMEAN) for tables."""
    rows: List[Dict[str, object]] = []
    profile_names = list(reports)
    if not profile_names:
        return rows
    designs = reports[profile_names[0]].designs
    for design in designs:
        speedups = [
            float(reports[profile][design]["speedup"]) for profile in profile_names
        ]
        row: Dict[str, object] = {"design": design}
        row.update(dict(zip(profile_names, speedups, strict=True)))
        row["geomean"] = geometric_mean(speedups)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Consolidation scenarios (heterogeneous multi-program CMPs)
# --------------------------------------------------------------------------- #

#: The consolidation scenarios the comparison table reports by default.
SCENARIO_SET: Tuple[str, ...] = ("consolidated_oltp_dss", "noisy_neighbor_media")


def scenario_grid(
    scenarios: Sequence[str] = SCENARIO_SET,
    designs: Sequence[Union[str, DesignSpec]] = GRID_DESIGNS,
    baseline: Optional[str] = None,
    **sweep_kwargs: Any,
) -> Dict[str, RunReport]:
    """The consolidated-server grid: scenario x design, on the sweep engine.

    Each scenario is a heterogeneous per-core workload mix (see
    :mod:`repro.workloads.scenario`); cells cache, fan out and share
    trace-store artifacts exactly like homogeneous profile cells.  Returns
    ``{scenario name: RunReport}``.
    """
    return run_grid(
        [], designs, baseline=baseline, scenarios=list(scenarios), **sweep_kwargs
    )


def scenario_comparison_rows(
    reports: Mapping[str, RunReport],
) -> List[Dict[str, object]]:
    """One row per (scenario, design): chip throughput plus the per-profile split.

    The ``ipc[profile]`` columns expose who wins and who pays inside a
    consolidation — e.g. whether Confluence's shared history lifts the OLTP
    cores as much as the DSS cores that recorded next to them.
    """
    rows: List[Dict[str, object]] = []
    for scenario_name, report in reports.items():
        for design in report.designs:
            summary = report[design]
            row: Dict[str, object] = {
                "scenario": scenario_name,
                "design": design,
                "ipc": summary["ipc"],
                "speedup": summary["speedup"],
                "btb_mpki": summary["btb_mpki"],
                "l1i_mpki": summary["l1i_mpki"],
            }
            breakdown = summary.get("per_profile") or {}
            for profile_name, group in breakdown.items():
                row[f"ipc[{profile_name}]"] = group["ipc"]
            rows.append(row)
    return rows

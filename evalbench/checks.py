"""Output checks: result digests, model invariants and the paper-claim error.

A digest is a short SHA-256 of an item's canonical JSON (every simulated
statistic of one grid cell or one figure study).  Digests for the default
and the held-out seed are pinned in ``digests.json``; a simulator-only
speed-up must leave them unchanged.  For any other seed the benchmark checks
that every iteration of a run reproduces the first one.

The paper-claim error compares the model with the published numbers only,
and at reduced scale (profiles scaled to 0.45, one request per trace): it
is a regression signal for the model, not a validation of it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional

#: Published speedups over the baseline core (geomean over the workloads):
#: Fig 2's conventional frontends, and Confluence at 85% of Ideal's gain
#: (Fig 6).
PAPER_SPEEDUPS = {
    "fdp": 1.05,
    "2level_fdp": 1.16,
    "2level_shift": 1.22,
    "ideal": 1.35,
    "confluence": 1.0 + 0.85 * (1.35 - 1.0),
}
#: Figure 9: share of a 1K-entry BTB's misses each design eliminates.
PAPER_MISS_COVERAGE = {"phantombtb": 0.61, "airbtb": 0.93, "conventional_16k": 0.95}

_REL_TOLERANCE = 1e-9


def digest(data: Any) -> str:
    """Short, stable hash of plain data (floats by their exact repr)."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def frontend_violations(result: Any, base_cpi: float) -> List[str]:
    """Invariants of one :class:`~repro.core.frontend.FrontendResult`.

    Cycles equal base cycles plus the four stall components, base cycles
    equal instructions times the base CPI, every stall component is
    non-negative and IPC is positive.
    """
    stalls = (
        result.misfetch_stall_cycles,
        result.btb_latency_stall_cycles,
        result.l1i_stall_cycles,
        result.direction_stall_cycles,
    )
    problems = []
    if any(stall < 0 for stall in stalls):
        problems.append(f"negative stall component {stalls}")
    if not math.isclose(result.cycles, result.base_cycles + sum(stalls),
                        rel_tol=_REL_TOLERANCE):
        problems.append("cycles != base cycles + stalls")
    if not math.isclose(result.base_cycles, result.instructions * base_cpi,
                        rel_tol=_REL_TOLERANCE):
        problems.append("base cycles != instructions x base CPI")
    if not result.ipc > 0:
        problems.append(f"IPC {result.ipc} is not positive")
    return problems


class InvariantViolation(RuntimeError):
    """A simulation produced a result that breaks a model invariant."""


def install_result_checks() -> None:
    """Check every simulation's result as it is produced.

    Wraps ``FrontendSimulator.run`` at class level, so grid cells in forked
    pool workers are checked too: a violation raises, the cell fails, and
    the benchmark counts it.
    """
    from repro.core.frontend import FrontendSimulator

    simulate = FrontendSimulator.run

    def checked_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = simulate(self, *args, **kwargs)
        problems = frontend_violations(result, self.config.base_cpi)
        if problems:
            raise InvariantViolation(
                f"{result.design} on {result.workload}: {'; '.join(problems)}"
            )
        return result

    FrontendSimulator.run = checked_run


def summary_violations(summary: Mapping[str, Any]) -> List[str]:
    """Invariants of one grid cell summary (chip totals vs per-profile rows)."""
    problems = []
    cycles = float(summary["cycles"])
    instructions = float(summary["instructions"])
    per_profile = summary["per_profile"]
    if not summary["ipc"] > 0 or not all(ipc > 0 for ipc in summary["core_ipc"]):
        problems.append("non-positive IPC")
    if not math.isclose(cycles, sum(row["cycles"] for row in per_profile.values()),
                        rel_tol=_REL_TOLERANCE):
        problems.append("chip cycles != sum of per-profile cycles")
    if not math.isclose(instructions, cycles * summary["ipc"], rel_tol=_REL_TOLERANCE):
        problems.append("IPC != instructions / cycles")
    return problems


def ideal_violations(summaries: Mapping[str, Mapping[str, Any]],
                     ideal: str = "ideal") -> Dict[str, str]:
    """Cells whose design beats Ideal on the same profile (item -> reason).

    ``summaries`` is keyed ``"<profile>/<design>"``.
    """
    problems: Dict[str, str] = {}
    for item, summary in summaries.items():
        profile, design = item.split("/", 1)
        ideal_summary = summaries.get(f"{profile}/{ideal}")
        if design == ideal or ideal_summary is None:
            continue
        if summary["ipc"] > ideal_summary["ipc"]:
            problems[item] = f"IPC {summary['ipc']} exceeds Ideal's {ideal_summary['ipc']}"
    return problems


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def grid_paper_err(summaries: Mapping[str, Mapping[str, Any]],
                   profiles: Iterable[str]) -> Optional[float]:
    """Mean |measured - published| geomean speedup over the designs with a
    published speedup (Figs 2 and 6)."""
    profiles = list(profiles)
    try:
        errors = [
            abs(geometric_mean(
                summaries[f"{profile}/{design}"]["ipc"] / summaries[f"{profile}/baseline"]["ipc"]
                for profile in profiles
            ) - paper)
            for design, paper in PAPER_SPEEDUPS.items()
        ]
    except KeyError:
        return None
    return sum(errors) / len(errors)


def coverage_paper_err(coverages: Iterable[Mapping[str, float]]) -> Optional[float]:
    """Mean |measured - paper| over the Fig 9 coverages, each averaged
    over the profiles."""
    rows = list(coverages)
    if not rows:
        return None
    errors = [
        abs(sum(row[name] for row in rows) / len(rows) - paper)
        for name, paper in PAPER_MISS_COVERAGE.items()
    ]
    return sum(errors) / len(errors)


def airbtb_paper_err(summaries: Mapping[str, Mapping[str, Any]],
                     workloads: Iterable[str]) -> Optional[float]:
    """|AirBTB's chip-wide miss coverage over the 1K-entry baseline BTB - 0.93|.

    The Fig 9 claim measured on the consolidated chips: Confluence's BTB
    misses against the baseline design's, summed over the scenarios.
    """
    workloads = list(workloads)
    try:
        misses = {
            design: sum(
                summaries[f"{workload}/{design}"]["btb_mpki"]
                * summaries[f"{workload}/{design}"]["instructions"]
                for workload in workloads
            )
            for design in ("baseline", "confluence")
        }
    except KeyError:
        return None
    coverage = 1.0 - misses["confluence"] / misses["baseline"]
    return abs(coverage - PAPER_MISS_COVERAGE["airbtb"])

"""High-level experiment API: the :class:`Session` facade and run reports.

One line builds a workload and runs a design grid::

    from repro import Session

    report = Session(profile="oltp_db2", scale=0.25, cores=16).run(
        ["baseline", "confluence"]
    )
    print(report["confluence"]["speedup"])

A :class:`Session` owns one workload: the synthetic program is synthesized
once and memoized per process, and every per-core trace is generated once,
so running many design points amortizes the (comparatively expensive)
workload construction.  Runs execute through :mod:`repro.sweep`: each
(profile, design) grid cell can be fanned out across the sweep's process
pool with ``workers=N`` (opt-in; the serial default preserves seed
determinism, and the parallel path is bit-identical to it anyway) and
served from the on-disk result cache with ``cache=...`` so an unchanged
cell is loaded instead of re-simulated.

The result is a :class:`RunReport` of plain data — JSON-serializable both
ways — so sweeps can be archived, diffed and post-processed without keeping
simulator objects alive.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.cmp import ChipMultiprocessor
from repro.core.designs import DesignSpec, resolve_design
from repro.core.frontend import FrontendConfig
from repro.registry import ensure_unique_names
from repro.resilience import RetryPolicy
from repro.sweep import (
    ResultCache,
    SweepOutcome,
    TraceStore,
    cmp_driver,
    run_sweep,
    workload_program,
)
from repro.workloads.cfg import SyntheticProgram
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.scenario import BoundScenario, Scenario, resolve_scenario

__all__ = [
    "SWEEP_REPORT_SCHEMA_VERSION",
    "RunReport",
    "Session",
    "load_reports",
    "reports_from_sweep",
    "run_grid",
    "save_reports",
]

#: Schema of the saved sweep-report files (:func:`save_reports`); bumped
#: whenever their layout changes meaning so ``repro report`` never misreads
#: another build's summaries.
SWEEP_REPORT_SCHEMA_VERSION = 1

#: The ``kind`` tag distinguishing saved sweep reports from the other JSON
#: artifacts the repo writes (bench trajectories, report bundles).
SWEEP_REPORT_KIND = "repro-sweep-reports"


@dataclass
class RunReport:
    """JSON-serializable outcome of one :meth:`Session.run`.

    ``results`` maps design name to a flat summary dict (instructions,
    cycles, ipc, mpki, speedup against ``baseline``, area).  The ``order``
    list preserves the caller's design order for table rendering.
    """

    profile: str
    scale: float
    cores: int
    instructions_per_core: int
    baseline: Optional[str]
    order: List[str] = field(default_factory=list)
    results: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def __getitem__(self, design: str) -> Dict[str, object]:
        return self.results[design]

    def __contains__(self, design: str) -> bool:
        return design in self.results

    @property
    def designs(self) -> List[str]:
        return list(self.order)

    def speedup(self, design: str, baseline: Optional[str] = None) -> float:
        """Speedup of ``design`` over ``baseline`` (the report's by default)."""
        reference = baseline if baseline is not None else self.baseline
        if reference is None:
            raise ValueError("report has no baseline design; pass one explicitly")
        base_ipc = float(self.results[reference]["ipc"])
        if base_ipc == 0:
            return 0.0
        return float(self.results[design]["ipc"]) / base_ipc

    def to_dict(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "scale": self.scale,
            "cores": self.cores,
            "instructions_per_core": self.instructions_per_core,
            "baseline": self.baseline,
            "order": list(self.order),
            "results": {name: dict(summary) for name, summary in self.results.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunReport":
        return cls(
            profile=data["profile"],
            scale=data["scale"],
            cores=data["cores"],
            instructions_per_core=data["instructions_per_core"],
            baseline=data["baseline"],
            order=list(data["order"]),
            results={name: dict(summary) for name, summary in data["results"].items()},
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def _pick_baseline(names: Sequence[str], baseline: Optional[str]) -> str:
    """The speedup reference: ``"baseline"`` when present, else the first."""
    if baseline is None:
        return "baseline" if "baseline" in names else names[0]
    if baseline not in names:
        raise ValueError(
            f"baseline {baseline!r} is not among the designs: {', '.join(names)}"
        )
    return baseline


def _assemble_report(
    profile: str,
    scale: float,
    cores: int,
    instructions_per_core: int,
    baseline: str,
    names: Sequence[str],
    summaries: Mapping[str, Mapping[str, object]],
) -> RunReport:
    """Fold baseline-independent cell summaries into one :class:`RunReport`."""
    report = RunReport(
        profile=profile,
        scale=scale,
        cores=cores,
        instructions_per_core=instructions_per_core,
        baseline=baseline,
        order=list(names),
    )
    base_ipc = float(summaries[baseline]["ipc"])
    for name in names:
        summary = dict(summaries[name])
        summary["speedup"] = float(summary["ipc"]) / base_ipc if base_ipc else 0.0
        report.results[name] = summary
    return report


class Session:
    """One workload, many designs: build once, run a design grid.

    Args:
        profile: workload profile name (``"oltp_db2"``) or a
            :class:`~repro.workloads.profiles.WorkloadProfile` instance.
        scale: footprint/trace-length scale factor applied to the profile.
        cores: CMP cores to simulate per design.
        instructions_per_core: trace length per core (profile default if
            omitted).
        frontend_config: timing-model overrides shared by all designs.
        trace_seed_base: per-core trace seeds are ``base + core``.
        workers: default width of the sweep's cell pool for :meth:`run`
            (``None``/1 = serial, the deterministic default; results are
            identical either way, parallelism only buys wall-clock).  Design
            points are the unit of parallelism: a run with fewer designs
            than workers uses one process per design.
        cache: on-disk result cache for :meth:`run` cells — ``True`` for the
            default directory (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), a
            path, or a :class:`repro.sweep.ResultCache`; ``None`` (default)
            disables caching.
        trace_store: on-disk packed-trace artifact store — ``True`` for the
            default directory (``$REPRO_TRACE_DIR`` or ``<cache>/traces``), a
            path, or a :class:`repro.sweep.TraceStore`; ``None`` (default)
            generates traces in-process.  Stored traces are shared by every
            design, run and process touching the same workload parameters.
        scenario: a heterogeneous consolidation instead of one profile — a
            catalog name (``"consolidated_oltp_dss"``), a
            :class:`~repro.workloads.scenario.Scenario` (bound here against
            ``cores``/``scale``/``instructions_per_core``/
            ``trace_seed_base``) or a pre-bound assignment.  When given it
            replaces ``profile``; ``session.profile`` is then ``None`` and
            the report is keyed by the scenario's name.
        retry_policy: resilience knobs for every :meth:`run` — bounded
            retry with deterministic backoff, per-cell timeouts and pool
            rebuilds (see :class:`repro.resilience.RetryPolicy` and
            ``docs/resilience.md``).  ``None`` uses the defaults.
    """

    def __init__(
        self,
        profile: Union[str, WorkloadProfile] = "oltp_db2",
        scale: float = 1.0,
        cores: int = 16,
        instructions_per_core: Optional[int] = None,
        frontend_config: Optional[FrontendConfig] = None,
        trace_seed_base: int = 100,
        workers: Optional[int] = None,
        cache: Union[None, bool, str, Path, ResultCache] = None,
        trace_store: Union[None, bool, str, Path, TraceStore] = None,
        scenario: Union[None, str, Scenario, BoundScenario] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if scenario is not None:
            if not isinstance(scenario, BoundScenario):
                scenario = resolve_scenario(scenario).bind(
                    cores=cores,
                    scale=scale,
                    instructions_per_core=instructions_per_core,
                    trace_seed_base=trace_seed_base,
                )
            self.scenario: Optional[BoundScenario] = scenario
            self.profile: Optional[WorkloadProfile] = None
            self.cores = scenario.cores
            self.instructions_per_core = scenario.instructions_per_core
        else:
            if isinstance(profile, str):
                profile = get_profile(profile)
            if scale != 1.0:
                profile = profile.scaled(scale)
            self.scenario = None
            self.profile = profile
            self.cores = cores
            self.instructions_per_core = (
                profile.recommended_trace_instructions
                if instructions_per_core is None else instructions_per_core
            )
        self.scale = scale
        self.frontend_config = frontend_config
        self.trace_seed_base = trace_seed_base
        self.workers = workers
        self.cache = ResultCache.coerce(cache)
        self.trace_store = TraceStore.coerce(trace_store)
        self.retry_policy = retry_policy
        self._program: Optional[SyntheticProgram] = None
        self._cmp: Optional[ChipMultiprocessor] = None

    @property
    def workload(self) -> Union[WorkloadProfile, BoundScenario]:
        """What this session runs: its profile, or its bound scenario."""
        if self.scenario is not None:
            return self.scenario
        return self.profile

    @property
    def workload_name(self) -> str:
        return self.workload.name

    @property
    def program(self) -> SyntheticProgram:
        """The synthesized workload program (built once per process)."""
        if self.scenario is not None:
            raise ValueError(
                "a scenario session spans multiple programs; use "
                "repro.workloads.workload_program(profile) per profile"
            )
        if self._program is None:
            # The sweep engine's per-process memo, so a Session and the cells
            # it schedules share one synthesized program.
            self._program = workload_program(self.profile)
        return self._program

    @property
    def cmp(self) -> ChipMultiprocessor:
        """The CMP driver behind this session (traces cached inside).

        The same memoized driver the session's sweep cells use, so
        :meth:`run` and direct ``cmp`` access share one trace set.
        """
        if self._cmp is None:
            self._cmp = cmp_driver(
                self.workload,
                self.cores,
                self.instructions_per_core,
                self.trace_seed_base,
                self.frontend_config,
                trace_store=self.trace_store,
            )
        return self._cmp

    def run(
        self,
        designs: Union[str, DesignSpec, Sequence[Union[str, DesignSpec]]],
        baseline: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> RunReport:
        """Run a set of design points and return a :class:`RunReport`.

        ``designs`` may mix catalog names and ad-hoc :class:`DesignSpec`
        instances; duplicate design names are rejected (they would silently
        collapse report rows).  ``baseline`` names the speedup reference; it
        defaults to ``"baseline"`` when present, else the first design.
        The run is a one-row :func:`repro.sweep.run_sweep` (which validates
        the chip shape before any cell is built), so the session's ``cache``
        serves unchanged design points from disk and the session's
        ``retry_policy`` governs fault handling.
        """
        if isinstance(designs, (str, DesignSpec)):
            designs = [designs]
        specs = [resolve_design(design) for design in designs]
        if not specs:
            raise ValueError("no designs given")
        names = [spec.name for spec in specs]
        ensure_unique_names("design", names)
        baseline = _pick_baseline(names, baseline)

        outcome = run_sweep(
            [self.profile] if self.profile is not None else [],
            specs,
            cores=self.cores,
            instructions_per_core=self.instructions_per_core,
            frontend_config=self.frontend_config,
            trace_seed_base=self.trace_seed_base,
            workers=workers if workers is not None else self.workers,
            cache=self.cache,
            trace_store=self.trace_store,
            scenarios=[self.scenario] if self.scenario is not None else None,
            policy=self.retry_policy,
        )
        return _assemble_report(
            profile=self.workload_name,
            scale=self.scale,
            cores=self.cores,
            instructions_per_core=self.instructions_per_core,
            baseline=baseline,
            names=names,
            summaries={
                name: outcome.summary(self.workload_name, name) for name in names
            },
        )


def reports_from_sweep(
    outcome: SweepOutcome, baseline: Optional[str] = None
) -> Dict[str, RunReport]:
    """Fold a :class:`~repro.sweep.SweepOutcome` into per-workload reports.

    One report per grid row — workload profiles first, then scenarios, both
    keyed by name.
    """
    baseline = _pick_baseline(outcome.designs, baseline)
    cell_by_profile = {}
    for cell in outcome.cells:
        cell_by_profile.setdefault(cell.profile.name, cell)
    reports: Dict[str, RunReport] = {}
    for profile_name in outcome.workloads:
        cell = cell_by_profile[profile_name]
        reports[profile_name] = _assemble_report(
            profile=profile_name,
            scale=outcome.scale,
            cores=cell.cores,
            instructions_per_core=cell.instructions_per_core,
            baseline=baseline,
            names=outcome.designs,
            summaries={
                design: outcome.summary(profile_name, design)
                for design in outcome.designs
            },
        )
    return reports


def run_grid(
    profiles: Iterable[Union[str, WorkloadProfile]],
    designs: Sequence[Union[str, DesignSpec]],
    baseline: Optional[str] = None,
    **sweep_kwargs: Any,
) -> Dict[str, RunReport]:
    """Run a workload x design grid through the parallel sweep engine.

    Every (workload, design) cell of the grid — not just the cores inside one
    design point — is a unit of work: ``workers=N`` fans cells out across
    processes and ``cache=...`` serves unchanged cells from the on-disk
    result cache (see :mod:`repro.sweep`).  ``scenarios=[...]`` adds
    heterogeneous consolidation rows (``profiles`` may then be empty); the
    remaining keyword arguments (``scale``, ``cores``,
    ``instructions_per_core``, ``frontend_config``, ``trace_seed_base``)
    apply to every cell.  Returns ``{workload name: RunReport}``, identical
    to running one serial :class:`Session` per workload.
    """
    outcome = run_sweep(profiles, designs, **sweep_kwargs)
    return reports_from_sweep(outcome, baseline=baseline)


def save_reports(
    path: Union[str, Path],
    reports: Mapping[str, RunReport],
    stats: Optional[Mapping[str, int]] = None,
) -> Path:
    """Persist a sweep's :class:`RunReport` set (plus counters) to one file.

    This is the summary-persistence half of the reporting pipeline: a sweep
    that prints tables and exits used to leave nothing behind for
    ``python -m repro report`` to collect.  The file carries a schema and a
    ``kind`` tag, every report as its :meth:`RunReport.to_dict` data, and
    the sweep's :class:`~repro.sweep.SweepStats` counters; the write is
    atomic (temp file + rename) like every store in the repo.  The CLI
    exposes it as ``python -m repro sweep --save-report PATH``.
    """
    path = Path(path)
    payload = {
        "schema": SWEEP_REPORT_SCHEMA_VERSION,
        "kind": SWEEP_REPORT_KIND,
        "reports": {name: report.to_dict() for name, report in reports.items()},
        "stats": dict(stats) if stats is not None else {},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            json.dump(payload, tmp, indent=2, sort_keys=True)
            tmp.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_reports(
    path: Union[str, Path],
) -> Tuple[Dict[str, RunReport], Dict[str, int]]:
    """Read a :func:`save_reports` file back: ``(reports, stats)``.

    Also accepts the bare ``{"reports": ..., "stats": ...}`` shape that
    ``python -m repro sweep --json`` prints, so a redirected stdout is
    collectable too.  Raises :class:`ValueError` on any other layout or a
    schema this build does not read.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("reports"), dict):
        raise ValueError(f"{path} is not a saved sweep-report file")
    if "schema" in payload and payload["schema"] != SWEEP_REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"{path} uses sweep-report schema {payload['schema']!r} "
            f"(this build reads schema {SWEEP_REPORT_SCHEMA_VERSION})"
        )
    try:
        reports = {
            str(name): RunReport.from_dict(data)
            for name, data in payload["reports"].items()
        }
        stats_raw = payload.get("stats", {})
        stats = (
            {str(key): int(value) for key, value in stats_raw.items()}
            if isinstance(stats_raw, dict)
            else {}
        )
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        # A missing field, a non-object entry or a non-numeric counter.
        raise ValueError(
            f"{path} is not a saved sweep-report file: "
            f"{type(error).__name__}: {error}"
        ) from error
    return reports, stats

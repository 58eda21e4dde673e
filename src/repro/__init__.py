"""repro — reproduction of "Confluence: Unified Instruction Supply for
Scale-Out Servers" (Kaynak, Grot & Falsafi, MICRO-48, 2015).

The package is organised as the paper's system is:

* :mod:`repro.isa` — instruction/branch model, 64 B block model, predecoder.
* :mod:`repro.workloads` — synthetic scale-out server workloads, traces and
  consolidation :class:`Scenario` mixes (heterogeneous per-core assignments
  with a catalog mirroring :data:`DESIGN_POINTS`).
* :mod:`repro.caches` — L1-I, shared LLC and predictor virtualization.
* :mod:`repro.branch` — direction predictors, RAS, indirect cache and the
  BTB designs Confluence is compared against.
* :mod:`repro.prefetch` — FDP and SHIFT instruction prefetchers.
* :mod:`repro.registry` — pluggable component registries (BTBs and
  prefetchers self-register; user code can add its own).
* :mod:`repro.backends` — the simulation loops: ``scalar`` (the
  zero-allocation columnar hot loop every :class:`FrontendSimulator` run
  executes) and ``reference`` (the record-view oracle the parity tests pin
  it against).
* :mod:`repro.core` — the contribution: AirBTB, Confluence, the frontend
  timing model, the declarative :class:`DesignSpec` catalog, the area model
  and the CMP driver.
* :mod:`repro.analysis` — experiment harnesses that regenerate every table
  and figure of the paper's evaluation.
* :mod:`repro.sweep` — the parallel sweep engine: (profile x design) grid
  cells fanned out across worker processes, with a content-addressed
  on-disk result cache (``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)
  so unchanged cells load instead of re-simulating.  Also the
  ``python -m repro sweep`` CLI.
* :mod:`repro.api` — the :class:`Session` facade: build a workload once, run
  a design grid (optionally across worker processes), get a
  JSON-serializable :class:`RunReport`.

Quickstart::

    from repro import Session

    session = Session(profile="oltp_db2", scale=0.25, cores=4)
    report = session.run(["baseline", "confluence", "ideal"])
    print(report["confluence"]["speedup"], report["confluence"]["btb_mpki"])
    print(report.to_json(indent=2))  # archive / diff / post-process

Custom design points are data plus (optionally) a registered component::

    from repro import DesignSpec, register_design_point

    register_design_point(DesignSpec(
        name="fat_baseline", label="4K BTB", btb="conventional",
        prefetcher="none", btb_params={"entries": 4096, "victim_entries": 64},
    ))
    report = session.run(["baseline", "fat_baseline"])

The lower-level factory API (:func:`build_design`,
:class:`ChipMultiprocessor`) remains available for single-simulator studies;
see ``examples/`` for both styles.
"""

from repro.workloads import (
    WORKLOAD_PROFILES,
    EVALUATION_WORKLOADS,
    SCENARIOS,
    BoundScenario,
    CoreWorkload,
    Scenario,
    ScenarioEntry,
    WorkloadProfile,
    build_workload,
    evaluation_profiles,
    generate_trace,
    get_profile,
    get_scenario,
    register_scenario,
    scenario_from_profile,
    synthesize_program,
    workload_program,
)
from repro.registry import (
    BTB_REGISTRY,
    PREFETCHER_REGISTRY,
    BuildContext,
    build_btb,
    build_prefetcher,
)
from repro.core import (
    AirBTB,
    AirBTBConfig,
    ChipMultiprocessor,
    CMPResult,
    Confluence,
    ConfluenceConfig,
    DESIGN_POINTS,
    DesignPoint,
    DesignSpec,
    FrontendConfig,
    FrontendResult,
    FrontendSimulator,
    build_design,
    design_from_spec,
    register_design_point,
    resolve_design,
)
from repro.api import RunReport, Session, reports_from_sweep, run_grid
from repro.resilience import CellExecutionError, RetryPolicy, RunJournal
from repro.sweep import (
    CorruptArtifactWarning,
    ResultCache,
    SweepCell,
    SweepOutcome,
    SweepStats,
    TraceStore,
    default_cache_dir,
    default_journal_dir,
    default_trace_dir,
    run_sweep,
)
from repro.workloads import PackedTrace, Trace, load_packed

__version__ = "1.5.0"

__all__ = [
    "__version__",
    "WORKLOAD_PROFILES",
    "EVALUATION_WORKLOADS",
    "SCENARIOS",
    "BoundScenario",
    "CoreWorkload",
    "Scenario",
    "ScenarioEntry",
    "WorkloadProfile",
    "build_workload",
    "evaluation_profiles",
    "generate_trace",
    "get_profile",
    "get_scenario",
    "register_scenario",
    "scenario_from_profile",
    "synthesize_program",
    "workload_program",
    "BTB_REGISTRY",
    "PREFETCHER_REGISTRY",
    "BuildContext",
    "build_btb",
    "build_prefetcher",
    "AirBTB",
    "AirBTBConfig",
    "ChipMultiprocessor",
    "CMPResult",
    "Confluence",
    "ConfluenceConfig",
    "DESIGN_POINTS",
    "DesignPoint",
    "DesignSpec",
    "FrontendConfig",
    "FrontendResult",
    "FrontendSimulator",
    "build_design",
    "design_from_spec",
    "register_design_point",
    "resolve_design",
    "RunReport",
    "Session",
    "run_grid",
    "reports_from_sweep",
    "CellExecutionError",
    "CorruptArtifactWarning",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "SweepCell",
    "SweepOutcome",
    "SweepStats",
    "TraceStore",
    "PackedTrace",
    "Trace",
    "load_packed",
    "default_cache_dir",
    "default_journal_dir",
    "default_trace_dir",
    "run_sweep",
]

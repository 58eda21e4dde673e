"""Synthetic scale-out server workloads.

The paper evaluates Confluence on full-system traces of commercial server
software (TPC-C on DB2/Oracle, TPC-H decision support, Darwin media streaming
and a SPECweb99 Apache frontend).  Those traces are not available, so this
package synthesizes workloads that reproduce the *properties* the evaluated
frontend mechanisms are sensitive to:

* multi-hundred-kilobyte instruction working sets that overwhelm a 32 KB L1-I
  and a 1K-entry BTB,
* deep layered call stacks (a dozen software layers per request),
* request-level recurrence, i.e. long temporal instruction streams, and
* per-block branch densities matching Table 2 (~3.5 static, ~1.5 dynamic
  branches per demand-fetched block).

A workload is built in two steps: :func:`synthesize_program` lays out a
layered control-flow graph and reads off its program image (each 64-byte
code block's predecoded branches, :attr:`SyntheticProgram.image`), and
:class:`TraceWalker` (or the :func:`generate_trace` convenience) walks the
graph, serving a stream of requests, to produce a fetch-region trace.
"""

from repro.workloads.profiles import (
    EVALUATION_WORKLOADS,
    WORKLOAD_PROFILES,
    WorkloadProfile,
    evaluation_profiles,
    get_profile,
)
from repro.workloads.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Function,
    SyntheticProgram,
    clear_program_memo,
    synthesize_program,
    workload_program,
)
from repro.workloads.scenario import (
    SCENARIOS,
    BoundScenario,
    CoreWorkload,
    Scenario,
    ScenarioEntry,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_from_profile,
)
from repro.workloads.packed import PackedTrace, PackedTraceBuilder, load_packed
from repro.workloads.trace import FetchRecord, RecordView, Trace, TraceStatistics
from repro.workloads.generator import TraceWalker, build_workload, generate_trace

__all__ = [
    "WorkloadProfile",
    "WORKLOAD_PROFILES",
    "EVALUATION_WORKLOADS",
    "SCENARIOS",
    "BoundScenario",
    "CoreWorkload",
    "Scenario",
    "ScenarioEntry",
    "evaluation_profiles",
    "get_profile",
    "get_scenario",
    "register_scenario",
    "resolve_scenario",
    "scenario_from_profile",
    "clear_program_memo",
    "workload_program",
    "BasicBlock",
    "Function",
    "ControlFlowGraph",
    "SyntheticProgram",
    "synthesize_program",
    "FetchRecord",
    "PackedTrace",
    "PackedTraceBuilder",
    "RecordView",
    "Trace",
    "TraceStatistics",
    "TraceWalker",
    "generate_trace",
    "load_packed",
    "build_workload",
]

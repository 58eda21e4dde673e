"""Chip multiprocessor driver: many cores, shared metadata, mixed workloads.

The paper evaluates a 16-core tiled CMP whose deployment model is a
*consolidated* scale-out server: co-located server workloads sharing one
chip.  This driver reproduces that setup for trace-driven simulation, in
both its homogeneous form (every core runs the same profile, the paper's
measurement configuration) and its heterogeneous form (a
:class:`~repro.workloads.scenario.Scenario` assigns each core its own
profile, seed and instruction budget):

* every core gets its own trace, L1-I, BTB and branch predictors,
* the SHIFT history (and PhantomBTB's virtual table) is virtualized in the
  shared LLC; one history instance exists **per workload profile on the
  chip** — the first core running a profile records it, every other core of
  that profile replays it, exactly the paper's one-history-per-workload
  sharing (a homogeneous chip therefore has exactly one, recorded by
  core 0), and
* cores are simulated one after another, in-process (their only
  interaction is through the shared metadata, which is insensitive to
  fine-grain interleaving).

A driver is one sweep cell's worth of work: parallelism lives one level up,
where :func:`repro.sweep.run_cells` fans whole cells out across its process
pool under the retry policy, so a chip never starts a pool of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.caches.llc import LLCConfig, SharedLLC
from repro.core.area import FrontendAreaReport
from repro.core.designs import DesignSpec, design_from_spec, resolve_design
from repro.core.frontend import FrontendConfig, FrontendResult
from repro.core.metrics import mpki
from repro.prefetch.shift import ShiftHistory
from repro.registry import ensure_unique_names
from repro.workloads.cfg import SyntheticProgram, workload_program
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.scenario import BoundScenario, CoreWorkload, Scenario
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # import cycle guard: sweep.py imports this module
    from repro.sweep import TraceStore

@dataclass
class CMPResult:
    """Aggregate result of one design point on one workload or scenario.

    ``workload`` is the profile name for homogeneous runs and the scenario
    name for mixed ones; ``core_profiles`` names the profile each core ran
    (the per-core breakdown key), and :meth:`per_profile` rolls the core
    results up per profile.
    """

    design: str
    workload: str
    core_results: List[FrontendResult] = field(default_factory=list)
    area: Optional[FrontendAreaReport] = None
    #: The scenario this result came from (``None`` for homogeneous runs).
    scenario: Optional[str] = None
    #: Profile name per core, aligned with ``core_results``.
    core_profiles: List[str] = field(default_factory=list)

    @property
    def instructions(self) -> int:
        return sum(result.instructions for result in self.core_results)

    @property
    def cycles(self) -> float:
        return sum(result.cycles for result in self.core_results)

    @property
    def ipc(self) -> float:
        """System throughput proxy: aggregate instructions over aggregate cycles."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def btb_taken_misses(self) -> int:
        return sum(result.btb_taken_misses for result in self.core_results)

    @property
    def btb_mpki(self) -> float:
        # metrics.mpki raises on a zero instruction count: a result that
        # measured nothing must fail loudly, not read as miss-free.
        return mpki(self.btb_taken_misses, self.instructions)

    @property
    def l1i_mpki(self) -> float:
        return mpki(sum(result.l1i_misses for result in self.core_results),
                    self.instructions)

    def per_profile(self) -> Dict[str, Dict[str, float]]:
        """Roll the per-core results up by profile (the scenario breakdown).

        Returns ``{profile name: {cores, instructions, cycles, ipc,
        btb_mpki, l1i_mpki}}``.  Homogeneous results produce a single group,
        so consumers can treat every CMP result uniformly.
        """
        names = self.core_profiles or [self.workload] * len(self.core_results)
        groups: Dict[str, List[FrontendResult]] = {}
        for name, result in zip(names, self.core_results, strict=True):
            groups.setdefault(name, []).append(result)
        breakdown: Dict[str, Dict[str, float]] = {}
        for name, results in groups.items():
            instructions = sum(result.instructions for result in results)
            cycles = sum(result.cycles for result in results)
            breakdown[name] = {
                "cores": len(results),
                "instructions": instructions,
                "cycles": cycles,
                "ipc": instructions / cycles if cycles else 0.0,
                "btb_mpki": mpki(
                    sum(result.btb_taken_misses for result in results), instructions
                ),
                "l1i_mpki": mpki(
                    sum(result.l1i_misses for result in results), instructions
                ),
            }
        return breakdown

    def speedup_over(self, baseline: "CMPResult") -> float:
        # A zero-IPC operand measured nothing; fail loudly (the mpki /
        # miss_coverage degenerate-denominator policy), never report 0x.
        if self.ipc == 0 or baseline.ipc == 0:
            raise ValueError(
                "speedup_over is undefined when either result has zero IPC "
                f"(self.ipc={self.ipc}, baseline.ipc={baseline.ipc})"
            )
        return self.ipc / baseline.ipc


class ChipMultiprocessor:
    """Simulates ``cores`` instances of one workload — or a scenario's mix.

    Homogeneous form (the paper's measurement setup)::

        ChipMultiprocessor(program, cores=16)

    Heterogeneous form (a consolidated server)::

        ChipMultiprocessor(scenario=get_scenario("consolidated_oltp_dss"))

    ``scenario`` accepts a :class:`~repro.workloads.scenario.Scenario`
    (bound here against ``cores``/``instructions_per_core``/
    ``trace_seed_base``) or an already-bound
    :class:`~repro.workloads.scenario.BoundScenario` (whose assignment wins
    over those knobs).  A single-profile scenario is the degenerate case and
    reproduces the homogeneous form bit for bit.
    """

    def __init__(
        self,
        program: Optional[SyntheticProgram] = None,
        cores: int = 16,
        instructions_per_core: Optional[int] = None,
        frontend_config: Optional[FrontendConfig] = None,
        trace_seed_base: int = 100,
        trace_store: Optional["TraceStore"] = None,
        scenario: Union[None, Scenario, BoundScenario] = None,
    ) -> None:
        if scenario is not None:
            if program is not None:
                raise ValueError(
                    "pass either a program (homogeneous CMP) or a scenario "
                    "(heterogeneous CMP), not both"
                )
            if isinstance(scenario, Scenario):
                scenario = scenario.bind(
                    cores=cores,
                    instructions_per_core=instructions_per_core,
                    trace_seed_base=trace_seed_base,
                )
            if not isinstance(scenario, BoundScenario):
                raise TypeError(f"not a scenario: {scenario!r}")
            self.scenario: Optional[BoundScenario] = scenario
            self.program = None
            self.profile: Optional[WorkloadProfile] = None
            self.workload_name = scenario.name
            self.workloads: Tuple[CoreWorkload, ...] = scenario.assignments
            self.cores = len(self.workloads)
            self.instructions_per_core = scenario.instructions_per_core
            self._programs: Dict[WorkloadProfile, SyntheticProgram] = {}
        else:
            if program is None:
                raise ValueError("a CMP needs a program or a scenario")
            if cores <= 0:
                raise ValueError("a CMP needs at least one core")
            self.scenario = None
            self.program = program
            self.profile = program.profile
            self.workload_name = self.profile.name
            self.cores = cores
            self.instructions_per_core = (
                self.profile.recommended_trace_instructions
                if instructions_per_core is None else instructions_per_core
            )
            self.workloads = tuple(
                CoreWorkload(
                    profile=self.profile,
                    seed=trace_seed_base + core,
                    instructions=self.instructions_per_core,
                )
                for core in range(cores)
            )
            self._programs = {self.profile: program}
        self.frontend_config = frontend_config
        self.trace_seed_base = trace_seed_base
        #: Optional :class:`repro.sweep.TraceStore`: per-core traces become
        #: shared on-disk artifacts, loaded instead of re-generated.
        self.trace_store = trace_store
        #: How this driver's traces were obtained (observability; the sweep
        #: engine folds these into :class:`repro.sweep.SweepStats`).
        #: ``traces_mapped`` counts the loads served zero-copy — memoryviews
        #: over an mmap of the store artifact, not a private heap copy.
        self.traces_generated = 0
        self.traces_loaded = 0
        self.traces_mapped = 0
        self._traces: Optional[List[Trace]] = None

    def _program_for(self, profile: WorkloadProfile) -> SyntheticProgram:
        program = self._programs.get(profile)
        if program is None:
            program = workload_program(profile)
            self._programs[profile] = program
        return program

    def _core_traces(self) -> List[Trace]:
        if self._traces is None:
            store = self.trace_store
            traces: List[Trace] = []
            for core, workload in enumerate(self.workloads):
                name = f"{workload.profile.name}/core{core}"
                trace = None
                if store is not None:
                    trace = store.load(
                        workload.profile, workload.instructions, workload.seed,
                        name=name,
                    )
                if trace is not None:
                    self.traces_loaded += 1
                    if trace.packed.mapped:
                        self.traces_mapped += 1
                else:
                    trace = generate_trace(
                        self._program_for(workload.profile),
                        workload.instructions,
                        seed=workload.seed,
                        name=name,
                    )
                    self.traces_generated += 1
                    if store is not None:
                        store.put(
                            workload.profile, workload.instructions,
                            workload.seed, trace,
                        )
                traces.append(trace)
            self._traces = traces
        return self._traces

    def _llc_config(self) -> LLCConfig:
        # The LLC is always the full chip's (16 slices): simulating fewer cores
        # samples the chip, it does not shrink the shared cache the virtualized
        # predictor metadata lives in.
        return LLCConfig(cores=max(self.cores, LLCConfig().cores))

    def run_design(self, design: Union[str, DesignSpec]) -> CMPResult:
        """Run every core under ``design`` with per-profile shared histories.

        The first core running each profile records that profile's SHIFT
        history; every other core of the profile replays it.
        """
        spec = resolve_design(design)
        llc = SharedLLC(self._llc_config())
        traces = self._core_traces()
        result = CMPResult(
            design=spec.name,
            workload=self.workload_name,
            scenario=self.scenario.name if self.scenario is not None else None,
            core_profiles=[workload.profile.name for workload in self.workloads],
        )

        # One shared history per profile on the chip, each virtualized in its
        # own LLC region.  Every recorder runs before any replayer, so each
        # replaying core reads its profile's complete history.
        histories: Dict[WorkloadProfile, ShiftHistory] = {}
        recorders: List[int] = []
        for index, workload in enumerate(self.workloads):
            if workload.profile not in histories:
                histories[workload.profile] = ShiftHistory(
                    llc=llc,
                    region_name=f"shift_history:{workload.profile.name}",
                )
                recorders.append(index)
        replayers = [index for index in range(self.cores) if index not in recorders]

        core_results: Dict[int, FrontendResult] = {}
        for index in recorders + replayers:
            workload = self.workloads[index]
            simulator, area = design_from_spec(
                spec,
                self._program_for(workload.profile),
                llc=llc,
                shared_history=histories[workload.profile],
                frontend_config=self.frontend_config,
                record_history=index in recorders,
            )
            if result.area is None:
                result.area = area
            core_results[index] = simulator.run(traces[index])
        result.core_results.extend(core_results[index] for index in range(self.cores))
        return result

    def run_designs(
        self, designs: Iterable[Union[str, DesignSpec]]
    ) -> Dict[str, CMPResult]:
        """Run a set of design points; returns ``{design name: CMPResult}``.

        Each spec is resolved exactly once, and duplicate design names are
        rejected: they would silently overwrite each other in the result
        mapping (rename a derived spec with :meth:`DesignSpec.derive`).
        """
        specs = [resolve_design(design) for design in designs]
        ensure_unique_names("design", [spec.name for spec in specs])
        return {spec.name: self.run_design(spec) for spec in specs}

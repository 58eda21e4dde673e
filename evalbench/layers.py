"""Which public calls of each layer the traced pass wraps, and the per-layer
metrics computed from them.

Labels name the layer and the call group; the metric names (``branch.btb_s``
and so on) are the ones listed under ``per_layer`` in ``BENCHMARK.json``.
Counters come from the :class:`~repro.core.frontend.FrontendResult` of every
simulation (measured portion, warm-up excluded) and from the sweep's
:class:`~repro.sweep.SweepStats`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
from typing import Any, Dict, Iterable, Iterator, List, Optional

from tracer import Tracer

#: Every design whose ``ChipMultiprocessor.run_design`` time is reported.
#: Spelled out (not read from ``GRID_DESIGNS``) so the metric names listed in
#: ``BENCHMARK.json`` stay fixed.
CMP_DESIGNS = ("baseline", "fdp", "2level_fdp", "2level_shift", "confluence", "ideal")

#: FrontendResult counters summed over every simulation of a traced pass.
RESULT_COUNTERS = (
    "fetch_regions",
    "misfetches",
    "direction_mispredictions",
    "l1i_accesses",
    "l1i_misses",
    "l1i_prefetch_hits",
    "prefetches_issued",
)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _wrap_methods(tracer: Tracer, classes: Iterable[type], names: Iterable[str],
                  labels: Any) -> None:
    """Wrap each listed method that a class defines itself (not inherited)."""
    names = tuple(names)
    for cls in classes:
        for name in names:
            method = cls.__dict__.get(name)
            if method is None or getattr(method, "__isabstractmethod__", False):
                continue
            tracer.patch_method(cls, name, tracer.timed(method, labels))


def _design_name(design: Any) -> str:
    return design if isinstance(design, str) else design.name


def _btb_identity(btb: Any) -> str:
    """A BTB configuration's identity: its class plus its public settings."""
    settings = {
        key: repr(value)
        for key, value in sorted(vars(btb).items())
        if not key.startswith("_")
        and (isinstance(value, (int, float, str, bool)) or dataclasses.is_dataclass(value))
    }
    return f"{type(btb).__name__}{settings}"


class LayerTracing:
    """Installs the per-layer wrappers on a :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: The profile of the figure study in progress (None outside one):
        #: simulations made inside a study count for the analysis layer.
        self.study_profile: Optional[str] = None

    def install(self) -> None:
        from repro.analysis import experiments
        from repro.backends.base import SimBackend
        from repro.branch.btb_base import BaseBTB
        from repro.branch.direction import HybridDirectionPredictor
        from repro.branch.indirect import IndirectTargetCache
        from repro.branch.ras import ReturnAddressStack
        from repro.branch.unit import BranchPredictionUnit
        from repro.caches.l1i import InstructionCache
        from repro.caches.llc import SharedLLC
        from repro.core import designs
        from repro.core.airbtb import AirBTB
        from repro.core.cmp import ChipMultiprocessor
        from repro.core.confluence import Confluence
        from repro.core.frontend import FrontendSimulator
        from repro.prefetch.base import InstructionPrefetcher
        from repro.resilience import RunJournal
        from repro.sweep import ResultCache, TraceStore, run_cells
        from repro.workloads import generator

        tracer = self.tracer

        # branch
        _wrap_methods(tracer, [BranchPredictionUnit], ["predict_region_into"], "branch.predict")
        _wrap_methods(tracer, [BranchPredictionUnit], ["resolve_region"], "branch.resolve")
        _wrap_methods(tracer, [HybridDirectionPredictor], ["predict", "update"], "branch.direction")
        _wrap_methods(tracer, [ReturnAddressStack], ["push", "pop", "peek"], "branch.ras")
        _wrap_methods(tracer, [IndirectTargetCache], ["predict", "update"], "branch.indirect")
        other_btbs = [cls for cls in _subclasses(BaseBTB) if not issubclass(cls, AirBTB)]
        _wrap_methods(tracer, other_btbs, ["lookup_into", "lookup", "update"], "branch.btb")
        _wrap_methods(tracer, _subclasses(AirBTB), ["lookup_into", "lookup", "update"],
                      ("confluence.airbtb", "branch.btb"))
        _wrap_methods(tracer, _subclasses(AirBTB), ["on_block_fill"], "confluence.airbtb")

        # caches, prefetch, confluence, backends
        _wrap_methods(tracer, [InstructionCache], ["access", "fill", "contains"], "caches.l1i")
        _wrap_methods(tracer, [SharedLLC], ["fetch_instruction_block"], "caches.llc")
        _wrap_methods(tracer, _subclasses(InstructionPrefetcher), ["prefetch_targets"],
                      "prefetch.targets")
        _wrap_methods(tracer, [Confluence], ["on_block_fill"], "confluence.fill")
        _wrap_methods(tracer, _subclasses(SimBackend), ["run"], "backends.loop")

        # sweep
        _wrap_methods(tracer, [ResultCache], ["get"], "sweep.cache_get")
        _wrap_methods(tracer, [ResultCache], ["put"], "sweep.cache_put")
        _wrap_methods(tracer, [TraceStore], ["load"], "sweep.trace_load")
        _wrap_methods(tracer, [TraceStore], ["put"], "sweep.trace_put")
        _wrap_methods(tracer, [RunJournal], ["record", "load"], "sweep.journal")
        tracer.patch_function("repro", run_cells, tracer.timed(run_cells, "sweep.run_cells"))

        # core.cmp / core.designs / core.frontend (coarse: spans + counters)
        run_design = ChipMultiprocessor.__dict__["run_design"]
        tracer.patch_method(ChipMultiprocessor, "run_design", tracer.coarse(
            run_design,
            lambda args, kwargs: "cmp.design." + _design_name(
                kwargs["design"] if "design" in kwargs else args[1]),
            span=lambda args, kwargs: "cell " + args[0].workload_name + "/" + _design_name(
                kwargs["design"] if "design" in kwargs else args[1]),
            after=lambda args, kwargs, result: tracer.dump_child(),
        ))
        tracer.patch_function("repro", designs.design_from_spec,
                              tracer.timed(designs.design_from_spec, "designs.build"))
        simulate = FrontendSimulator.__dict__["run"]
        tracer.patch_method(FrontendSimulator, "run", tracer.coarse(
            simulate,
            "frontend.run",
            span=lambda args, kwargs: "design " + args[0].design_name,
            after=self._after_simulation,
        ))

        # workloads
        generate = generator.generate_trace
        self._generate_signature = inspect.signature(generate)
        tracer.patch_function("repro", generate, tracer.coarse(
            generate, "workloads.generate", after=self._after_generate))

        # analysis
        coverage = experiments.run_btb_coverage
        tracer.patch_function("repro", coverage, tracer.coarse(
            coverage, "analysis.btb_coverage", after=self._after_coverage))
        tracer.installed = True

    @contextlib.contextmanager
    def study(self, profile: str, item: str) -> Iterator[None]:
        """Span one figure study; its simulations count for the analysis layer."""
        self.study_profile = profile
        try:
            with self.tracer.span("study " + item):
                yield
        finally:
            self.study_profile = None

    # -- hooks ---------------------------------------------------------- #

    def _after_simulation(self, args: tuple, kwargs: dict, result: Any) -> None:
        tracer = self.tracer
        simulator, trace = args[0], args[1] if len(args) > 1 else kwargs["trace"]
        tracer.count("backends.regions", len(trace))
        for name in RESULT_COUNTERS:
            tracer.count("result." + name, getattr(result, name))
        if self.study_profile is not None:
            tracer.count("analysis.sims")
            tracer.add_key("analysis.pairs", f"{self.study_profile}|design:{simulator.design_name}")

    def _after_coverage(self, args: tuple, kwargs: dict, result: Any) -> None:
        if self.study_profile is not None:
            btb = args[0] if args else kwargs["btb"]
            self.tracer.count("analysis.sims")
            self.tracer.add_key("analysis.pairs", f"{self.study_profile}|btb:{_btb_identity(btb)}")

    def _after_generate(self, args: tuple, kwargs: dict, result: Any) -> None:
        from repro.sweep import trace_key

        bound = self._generate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        program = bound.arguments["program"]
        self.tracer.count("workloads.traces_generated")
        self.tracer.add_key("workloads.traces", trace_key(
            program.profile, bound.arguments["instructions"], bound.arguments["seed"]))


def layer_metrics(tracer: Tracer, cell_processes: int, retried: int,
                  synthesize_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``cell_processes`` is how many processes ran grid cells (1 when cells
    ran in-process): ``sweep.sched_s`` charges the scheduler the wall time of
    ``run_cells`` minus the cell time per process.
    """
    counts = tracer.counts
    inc, own = tracer.inclusive, tracer.self_time

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cell_s = sum(inc("cmp.design." + name) for name in _cmp_labels(tracer))
    generated = counts.get("workloads.traces_generated", 0)
    regions = counts.get("backends.regions", 0)
    accesses = counts.get("result.l1i_accesses", 0)
    issued = counts.get("result.prefetches_issued", 0)
    sims = counts.get("analysis.sims", 0)
    metrics = {
        "workloads.synthesize_s": synthesize_s,
        "workloads.generate_s": inc("workloads.generate"),
        "workloads.traces_generated": generated,
        "workloads.gen_redundancy": ratio(generated, len(tracer.keys.get("workloads.traces", ()))),
        "sweep.cache_get_s": inc("sweep.cache_get"),
        "sweep.cache_put_s": inc("sweep.cache_put"),
        "sweep.trace_load_s": inc("sweep.trace_load"),
        "sweep.trace_put_s": inc("sweep.trace_put"),
        "sweep.journal_s": inc("sweep.journal"),
        "sweep.sched_s": (
            inc("sweep.run_cells") - cell_s / max(1, cell_processes)
            if tracer.calls("sweep.run_cells") else 0.0
        ),
        "sweep.retried": retried,
        "designs.build_s": inc("designs.build"),
        "backends.loop_self_s": own("backends.loop"),
        "backends.regions": regions,
        "backends.ns_per_region": ratio(own("backends.loop") * 1e9, regions),
        "branch.predict_self_s": own("branch.predict"),
        "branch.resolve_self_s": own("branch.resolve"),
        "branch.btb_s": inc("branch.btb"),
        "branch.direction_s": inc("branch.direction"),
        "branch.ras_s": inc("branch.ras"),
        "branch.indirect_s": inc("branch.indirect"),
        "branch.predictions": counts.get("result.fetch_regions", 0),
        "branch.misfetches": counts.get("result.misfetches", 0),
        "branch.direction_mispredictions": counts.get("result.direction_mispredictions", 0),
        "caches.l1i_s": inc("caches.l1i"),
        "caches.llc_s": inc("caches.llc"),
        "caches.l1i_accesses": accesses,
        "caches.l1i_hit_ratio": ratio(accesses - counts.get("result.l1i_misses", 0), accesses),
        "prefetch.targets_s": inc("prefetch.targets"),
        "prefetch.issued": issued,
        "prefetch.useful_ratio": ratio(counts.get("result.l1i_prefetch_hits", 0), issued),
        "confluence.airbtb_s": inc("confluence.airbtb"),
        "confluence.fill_s": inc("confluence.fill"),
        "analysis.btb_coverage_s": inc("analysis.btb_coverage"),
        "analysis.sims": sims,
        "analysis.distinct_ratio": ratio(len(tracer.keys.get("analysis.pairs", ())), sims),
    }
    for name in CMP_DESIGNS:
        metrics["cmp.design_s." + name] = inc("cmp.design." + name)
    return metrics


def _cmp_labels(tracer: Tracer) -> List[str]:
    prefix = "cmp.design."
    return [label[len(prefix):] for label in tracer.stats if label.startswith(prefix)]

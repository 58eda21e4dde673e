"""Prefetcher interface shared by FDP, SHIFT and the null prefetcher.

The frontend simulator calls the prefetcher once per fetch region with a
:class:`PrefetchContext` describing where the core currently is; the
prefetcher returns the block addresses it wants brought into the L1-I.  The
engine models the timeliness of those prefetches (a prefetch issued `d`
cycles before its block is demanded hides `d` cycles of the LLC round trip).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.registry import PREFETCHER_REGISTRY, BuildContext
from repro.workloads.packed import PackedTrace
from repro.workloads.trace import FetchRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.branch.columns import BranchColumns
    from repro.branch.unit import BranchPredictionUnit
    from repro.caches.l1i import InstructionCache


@dataclass
class PrefetchContext:
    """Everything a prefetcher may inspect when deciding what to fetch next.

    The packed fast path allocates ONE context per simulation and mutates
    ``index``/``cycle``/``demand_miss_block`` in place every region, so
    prefetchers must treat the context as valid only for the duration of the
    ``prefetch_targets`` call — stash the values you need, never the context
    object itself.

    Attributes:
        records: the full fetch-region trace being simulated.
        index: position of the region the core is currently fetching.
        cycle: current simulation cycle.
        l1i: the core's instruction cache (presence checks only).
        bpu: the core's branch prediction unit (FDP's runahead checks its
            BTB).  During a ``scalar`` run its direction predictor, RAS and
            indirect cache are not advanced region by region: the run reads
            their outcomes from ``columns``.
        demand_miss_block: block address of the L1-I miss that triggered this
            call, or None when the current region hit.
        packed: the columnar form of the trace, when the engine runs the
            packed fast path; prefetchers that walk ahead (FDP) read the
            columns directly, and :meth:`region_blocks` serves the current
            region's block span from the precomputed columns.
        columns: the trace's branch predictor columns
            (:mod:`repro.branch.columns`), set with ``packed`` by the
            ``scalar`` backend; FDP's runahead reads its stop column there.
    """

    records: Sequence[FetchRecord]
    index: int
    cycle: int
    l1i: "InstructionCache"
    bpu: Optional["BranchPredictionUnit"] = None
    demand_miss_block: Optional[int] = None
    packed: Optional[PackedTrace] = None
    columns: Optional["BranchColumns"] = None

    @property
    def current_record(self) -> FetchRecord:
        return self.records[self.index]

    def region_blocks(self) -> Tuple[int, ...]:
        """Block addresses of the current region, whichever path is active."""
        if self.packed is not None:
            return self.packed.region_blocks(self.index)
        return self.current_record.blocks()


class InstructionPrefetcher(abc.ABC):
    """Base class for instruction prefetchers."""

    name = "prefetcher"

    #: Upper bound on how many cycles of the LLC round trip a prefetch from
    #: this prefetcher can hide.  ``None`` means unbounded (stream prefetchers
    #: run arbitrarily far ahead of the fetch unit); FDP is bounded by its
    #: fetch-queue depth because the branch prediction unit only runs a few
    #: basic blocks ahead of fetch.
    max_lead_cycles: Optional[int] = None

    def __init__(self) -> None:
        self.issued_prefetches = 0

    @abc.abstractmethod
    def prefetch_targets(self, context: PrefetchContext) -> Iterable[int]:
        """Return block addresses to prefetch, in priority order."""

    def observe_fill(self, block_addr: int, demand: bool) -> None:
        """Hook: a block was installed in the L1-I (demand or prefetch)."""

    @property
    def storage_kb(self) -> float:
        """Dedicated per-core storage of the prefetcher."""
        return 0.0


class NullPrefetcher(InstructionPrefetcher):
    """No prefetching (the baseline core)."""

    name = "none"

    def prefetch_targets(self, context: PrefetchContext) -> List[int]:
        return []


@PREFETCHER_REGISTRY.register("none")
def _build_null(ctx: BuildContext, **params: Any) -> NullPrefetcher:
    return NullPrefetcher(**params)


@PREFETCHER_REGISTRY.register("perfect")
def _build_perfect(ctx: BuildContext, **params: Any) -> NullPrefetcher:
    """A perfect L1-I needs no prefetcher; the design flag does the work."""
    return NullPrefetcher(**params)

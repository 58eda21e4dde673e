"""Trace-driven frontend timing model.

The model walks a fetch-region trace through a branch prediction unit, an
L1-I, an optional instruction prefetcher and an optional Confluence instance,
charging stall cycles for the events that differentiate the paper's design
points:

* **misfetches** — a taken branch whose target the BTB could not supply is
  discovered in the first decode stage, costing the misfetch penalty
  (4 cycles for the modelled 3-fetch-stage core),
* **second-level BTB bubbles** — hierarchical BTBs (two-level, PhantomBTB)
  serve first-level misses from a slower structure, exposing its latency,
* **L1-I miss stalls** — a fetch that misses waits for the LLC round trip,
  minus however much of that latency an earlier prefetch already hid,
* **direction mispredictions** — identical across design points but modelled
  for realism of the absolute numbers.

Cycle accounting is additive on top of a base CPI that folds together the
core's issue width and all non-frontend stalls; the paper's relative numbers
come from the frontend terms, which is what this model reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.branch.unit import BranchPredictionUnit
from repro.caches.l1i import InstructionCache
from repro.caches.llc import SharedLLC
from repro.core.confluence import Confluence
from repro.core.metrics import mpki
from repro.prefetch.base import InstructionPrefetcher, NullPrefetcher
from repro.registry import check_count
from repro.workloads.trace import Trace

#: Default fraction of the trace used to warm structures before measuring.
DEFAULT_WARMUP_FRACTION = 0.2


def check_warmup_fraction(warmup_fraction: float) -> float:
    """Return ``warmup_fraction``, or raise :class:`ValueError` outside [0, 1).

    The one range check for every warm-up share: the config field, the
    :meth:`FrontendSimulator.run` override and the BTB coverage harness.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")
    return warmup_fraction


@dataclass(frozen=True)
class FrontendConfig:
    """Timing parameters of the modelled core (Table 1 and Section 4.1).

    Table 1's fetch queue depth belongs to the prefetcher that uses it:
    ``FetchDirectedPrefetcher(queue_depth_basic_blocks=...)``, set through a
    design's ``prefetcher_params``.
    """

    base_cpi: float = 1.0
    misfetch_penalty_cycles: int = 4
    direction_mispredict_penalty_cycles: int = 12
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION

    def __post_init__(self) -> None:
        check_warmup_fraction(self.warmup_fraction)
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        check_count("misfetch_penalty_cycles", self.misfetch_penalty_cycles, 0)
        check_count(
            "direction_mispredict_penalty_cycles",
            self.direction_mispredict_penalty_cycles,
            0,
        )


@dataclass
class FrontendResult:
    """Measured portion of one frontend simulation."""

    design: str
    workload: str
    instructions: int = 0
    fetch_regions: int = 0
    base_cycles: float = 0.0
    misfetch_stall_cycles: int = 0
    btb_latency_stall_cycles: int = 0
    l1i_stall_cycles: int = 0
    direction_stall_cycles: int = 0
    misfetches: int = 0
    btb_taken_lookups: int = 0
    btb_taken_misses: int = 0
    second_level_accesses: int = 0
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1i_prefetch_hits: int = 0
    direction_mispredictions: int = 0
    prefetches_issued: int = 0

    @property
    def stall_cycles(self) -> int:
        return (
            self.misfetch_stall_cycles
            + self.btb_latency_stall_cycles
            + self.l1i_stall_cycles
            + self.direction_stall_cycles
        )

    @property
    def cycles(self) -> float:
        return self.base_cycles + self.stall_cycles

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def btb_mpki(self) -> float:
        # metrics.mpki raises on a zero instruction count: a result that
        # measured nothing must fail loudly, not read as miss-free.
        return mpki(self.btb_taken_misses, self.instructions)

    @property
    def l1i_mpki(self) -> float:
        return mpki(self.l1i_misses, self.instructions)

    def speedup_over(self, baseline: "FrontendResult") -> float:
        """Performance (IPC) relative to ``baseline``.

        A zero-IPC operand means one of the results measured nothing; that
        must fail loudly (like ``mpki``/``miss_coverage``), not read as a
        0x "slowdown".
        """
        if self.ipc == 0 or baseline.ipc == 0:
            raise ValueError(
                "speedup_over is undefined when either result has zero IPC "
                f"(self.ipc={self.ipc}, baseline.ipc={baseline.ipc})"
            )
        return self.ipc / baseline.ipc


class FrontendSimulator:
    """Runs one core's fetch-region trace through a frontend design point."""

    def __init__(
        self,
        bpu: BranchPredictionUnit,
        l1i: Optional[InstructionCache] = None,
        llc: Optional[SharedLLC] = None,
        prefetcher: Optional[InstructionPrefetcher] = None,
        confluence: Optional[Confluence] = None,
        config: Optional[FrontendConfig] = None,
        perfect_l1i: bool = False,
        design_name: str = "frontend",
    ) -> None:
        self.bpu = bpu
        # Note: "l1i or InstructionCache()" would silently replace an *empty*
        # cache (len() == 0 is falsy) — always compare against None.
        self.l1i = l1i if l1i is not None else InstructionCache()
        self.llc = llc if llc is not None else SharedLLC()
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.confluence = confluence
        self.config = config or FrontendConfig()
        self.perfect_l1i = perfect_l1i
        self.design_name = design_name
        #: Prefetched blocks still in flight: block address -> ready cycle.
        self._inflight: Dict[int, float] = {}
        self._cycle: float = 0.0

    # ------------------------------------------------------------------ #
    # Simulation loop
    # ------------------------------------------------------------------ #

    def run(self, trace: Trace, warmup_fraction: Optional[float] = None) -> FrontendResult:
        """Simulate ``trace``; statistics cover the post-warmup portion.

        ``warmup_fraction`` overrides the config's share (``ValueError``
        outside [0, 1)).  The loop is
        :class:`~repro.backends.scalar.ScalarBackend`, the zero-allocation
        columnar loop; ``tests/test_frontend_parity.py`` pins it bit-exact
        against the record-view
        :class:`~repro.backends.reference.ReferenceBackend` oracle.
        """
        from repro.backends.scalar import ScalarBackend  # it imports this module

        if warmup_fraction is None:
            warmup_fraction = self.config.warmup_fraction
        return ScalarBackend().run(self, trace, check_warmup_fraction(warmup_fraction))

    def _finalize(self, result: FrontendResult) -> None:
        # Repeated run() calls start clean: drop stale in-flight entries AND
        # rewind the cycle counter (caches and predictors stay warm — reuse
        # models a core moving to the next trace, not a cold restart).
        self._inflight.clear()
        self._cycle = 0.0

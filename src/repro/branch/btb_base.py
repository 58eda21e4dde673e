"""Common interface for all BTB designs.

Every BTB design in the reproduction — conventional, two-level, PhantomBTB,
the ideal BTBs and AirBTB — implements :class:`BaseBTB`, so the frontend
timing model and the miss-coverage harness can swap designs freely.

The miss definition follows the paper (Section 2.1): a BTB miss occurs when
the entry for a *taken* branch is not found at lookup time.  Lookups for
not-taken branches are still performed (the BTB must identify the branch to
delimit the fetch region) but their misses are not what Figures 1, 8, 9 and
10 count, so the statistics track the two separately.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.isa.instruction import BranchKind
from repro.isa.predecode import PredecodedBlock

if TYPE_CHECKING:  # import cycle guard: unit.py imports this module
    from repro.branch.unit import PredictionSlot


@dataclass(frozen=True)
class BTBEntry:
    """One branch target buffer entry."""

    branch_pc: int
    kind: Optional[BranchKind]
    target: Optional[int]


@dataclass(frozen=True)
class BTBLookupResult:
    """Outcome of a BTB lookup as seen by the branch prediction unit.

    Attributes:
        hit: whether an entry for the branch was found anywhere.
        entry: the entry found, if any.
        latency_cycles: cycles the frontend is exposed to before the target
            is available (1 for a first-level hit, the second-level/LLC
            latency for hierarchical designs, 0 contribution on a miss —
            the misfetch penalty is charged by the frontend model instead).
        level: which structure provided the entry ("l1", "l2", "victim",
            "overflow", "prefetch_buffer", "perfect" or "miss").
    """

    hit: bool
    entry: Optional[BTBEntry]
    latency_cycles: int
    level: str

    @property
    def target(self) -> Optional[int]:
        return self.entry.target if self.entry is not None else None


@dataclass
class BTBStats:
    """Lookup statistics, split by the dynamic outcome of the branch."""

    lookups: int = 0
    taken_lookups: int = 0
    taken_misses: int = 0
    not_taken_lookups: int = 0
    not_taken_misses: int = 0
    insertions: int = 0
    second_level_accesses: int = 0

    def record(self, hit: bool, taken: bool, second_level: bool = False) -> None:
        self.lookups += 1
        if taken:
            self.taken_lookups += 1
            if not hit:
                self.taken_misses += 1
        else:
            self.not_taken_lookups += 1
            if not hit:
                self.not_taken_misses += 1
        if second_level:
            self.second_level_accesses += 1


def allocates_entry(kind: Optional[BranchKind], taken: bool) -> bool:
    """Whether a resolved branch trains a BTB that skips not-taken branches.

    Taken branches and unconditional ones get an entry; a not-taken
    conditional branch needs no target.  A branch without a kind (a trace
    record may carry none) counts as conditional.
    """
    return taken or (kind is not None and kind.is_unconditional)


class BaseBTB(abc.ABC):
    """Abstract BTB: lookup before prediction, update after resolution."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = BTBStats()

    @abc.abstractmethod
    def lookup(self, branch_pc: int, taken: bool = True) -> BTBLookupResult:
        """Look up ``branch_pc``.

        ``taken`` is the dynamic outcome of the branch and is used only for
        statistics (the hardware obviously does not know it at lookup time);
        it also lets hierarchical designs trigger their miss-driven fills
        exactly when the paper's designs would.
        """

    def lookup_into(
        self, slot: "PredictionSlot", branch_pc: int, taken: bool = True
    ) -> None:
        """Write the outcome of a lookup into a reusable prediction slot.

        ``slot`` is a :class:`repro.branch.unit.PredictionSlot`; only its
        ``set_btb(hit, target, latency_cycles, level)`` write point is used.
        The default delegates to :meth:`lookup` (so every BTB design works
        with the packed fast path unchanged); designs on the hot path
        override it to skip the :class:`BTBLookupResult` construction — the
        override must mirror :meth:`lookup` decision for decision, statistics
        call for statistics call.
        """
        result = self.lookup(branch_pc, taken=taken)
        slot.set_btb(result.hit, result.target, result.latency_cycles, result.level)

    @abc.abstractmethod
    def update(
        self, branch_pc: int, kind: Optional[BranchKind], target: Optional[int], taken: bool
    ) -> None:
        """Train the BTB with the resolved branch (insert/refresh its entry).

        ``kind`` is ``None`` for a branch whose trace record carries no kind.
        """

    def on_block_fill(self, predecoded: PredecodedBlock, demand: bool = False) -> None:
        """Hook called when an instruction block is installed in the L1-I.

        Only content-synchronized designs (AirBTB under Confluence) react;
        decoupled designs ignore it.
        """

    def on_block_evict(self, block_addr: int) -> None:
        """Hook called when an instruction block is evicted from the L1-I."""

    def peek_hit(self, branch_pc: int) -> bool:
        """Non-destructive presence check (no statistics, no LRU update).

        Used by runahead mechanisms (FDP) that must not perturb the BTB's
        measured behaviour.  Designs that cannot answer cheaply may return
        True (optimistic).
        """
        return True

    @property
    def storage_kb(self) -> float:
        """Dedicated per-core storage of the design in kilobytes."""
        return 0.0

    def miss_coverage_over(self, baseline_taken_misses: int) -> float:
        """Fraction of the baseline's taken-branch misses this design removed."""
        if baseline_taken_misses == 0:
            return 0.0
        eliminated = baseline_taken_misses - self.stats.taken_misses
        return eliminated / baseline_taken_misses

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
from typing import TYPE_CHECKING, Any, Optional

from repro.isa.instruction import BranchKind
from repro.isa.predecode import BTBEntry as BTBEntry, PredecodedBlock

if TYPE_CHECKING:  # import cycle guard: unit.py imports this module
    from repro.branch.unit import PredictionSlot


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


def holds_entry(
    entry: Optional[BTBEntry], kind: Optional[BranchKind], target: Optional[int]
) -> bool:
    """Whether a resident entry already records a resolved branch.

    ``entry`` is what the BTB holds under the branch's PC (``None`` when
    nothing is resident).  Entries are frozen and compared by value, so an
    update that finds one with the branch's kind and target may keep it
    rather than build an equal one.
    """
    return entry is not None and entry.kind is kind and entry.target == target


class BaseBTB(abc.ABC):
    """Abstract BTB: lookup before prediction, update after resolution."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = BTBStats()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Keep :meth:`lookup_into` in step with an overridden :meth:`lookup`.

        A subclass that redefines ``lookup`` but inherits a parent's
        specialised ``lookup_into`` would have the ``reference`` oracle call
        its own lookup while the ``scalar`` loop still ran the parent's; such
        a class gets the generic delegate back instead.
        """
        super().__init_subclass__(**kwargs)
        if "lookup" in cls.__dict__ and "lookup_into" not in cls.__dict__:
            setattr(cls, "lookup_into", BaseBTB.lookup_into)

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
        Entries are frozen and compared by value, so an update that finds
        an equal entry resident (:func:`holds_entry`) may keep that object
        instead of building a new one; it still counts the insertion and
        refreshes the entry's replacement state as a fresh one would.
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
        measured behaviour.  It must stay free of side effects: FDP peeks
        only on the calls that walk its window, so a peek that changed
        state would make results depend on when FDP walks.  Designs that
        cannot answer cheaply may return True (optimistic).
        """
        return True

    @property
    def storage_kb(self) -> float:
        """Dedicated per-core storage of the design in kilobytes."""
        return 0.0

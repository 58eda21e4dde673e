"""Conventional basic-block-oriented BTB, with an optional victim buffer.

The baseline of every figure in the paper is a 1K-entry, 4-way conventional
BTB augmented with a 64-entry victim buffer (Section 4.2.2).  Each entry is
tagged with the basic-block starting address and stores the target of the
branch ending the basic block, its type and a compressed fall-through
distance.  Because there is a one-to-one correspondence between a basic
block and the branch terminating it, this model tags entries with the branch
PC — capacity and conflict behaviour are identical, and it keeps the lookup
key uniform across all BTB designs.

Entry sizing (used for storage/area accounting) follows Section 4.2.2: a
30-bit target displacement, 2-bit type, 4-bit fall-through distance and the
tag bits of a 48-bit virtual address space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.branch.btb_base import BaseBTB, BTBEntry, BTBLookupResult, allocates_entry
from repro.caches.sram import SetAssociativeCache
from repro.isa.instruction import BranchKind
from repro.registry import BTB_REGISTRY, BuildContext
from repro.staticcheck.markers import hot_loop

if TYPE_CHECKING:  # import cycle guard: unit.py imports btb_base
    from repro.branch.unit import PredictionSlot

#: Bits per victim-buffer entry: full tag, target displacement, type, valid.
_VICTIM_ENTRY_BITS = 48 + 30 + 2 + 1


def conventional_entry_bits(entries: int, ways: int = 4, address_bits: int = 48) -> int:
    """Size of one conventional BTB entry in bits (tag + payload)."""
    sets = max(1, entries // ways)
    index_bits = max(0, sets.bit_length() - 1)
    tag_bits = address_bits - index_bits - 2  # minus 4-byte instruction alignment
    payload_bits = 30 + 2 + 4  # target displacement, type, fall-through length
    return tag_bits + payload_bits + 1  # +1 valid bit


def conventional_storage_kb(entries: int, ways: int = 4, victim_entries: int = 0) -> float:
    """Storage of a conventional BTB geometry, without instantiating one.

    Pure arithmetic on the geometry, so area accounting (e.g. a perfect BTB
    priced at the baseline's storage) never needs a shadow instance.
    """
    bits = entries * conventional_entry_bits(entries, ways)
    bits += victim_entries * _VICTIM_ENTRY_BITS
    return bits / 8 / 1024


class ConventionalBTB(BaseBTB):
    """Set-associative BTB with LRU replacement and optional victim buffer."""

    def __init__(
        self,
        entries: int = 1024,
        ways: int = 4,
        victim_entries: int = 0,
        latency_cycles: int = 1,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"conventional_btb_{entries}")
        if entries % ways:
            raise ValueError("entry count must be divisible by associativity")
        self.entries = entries
        self.ways = ways
        self.latency_cycles = latency_cycles
        self.victim_entries = victim_entries
        self._main = SetAssociativeCache(
            sets=entries // ways,
            ways=ways,
            name=f"{self.name}_main",
            index_shift=2,
            on_eviction=self._spill_to_victim if victim_entries else None,
        )
        self._victim = (
            SetAssociativeCache(sets=1, ways=victim_entries, name=f"{self.name}_victim")
            if victim_entries
            else None
        )

    def _spill_to_victim(self, branch_pc: int, entry: object) -> None:
        """Entries displaced from the main structure land in the victim buffer."""
        if self._victim is not None:
            self._victim.insert(branch_pc, entry)

    def lookup(self, branch_pc: int, taken: bool = True) -> BTBLookupResult:
        hit, payload = self._main.access(branch_pc)
        if hit:
            self.stats.record(True, taken)
            return BTBLookupResult(True, payload, self.latency_cycles, "l1")
        if self._victim is not None:
            victim_hit, victim_payload = self._victim.access(branch_pc)
            if victim_hit:
                # Promote back into the main structure.
                self._victim.invalidate(branch_pc)
                self._main.insert(branch_pc, victim_payload)
                self.stats.record(True, taken)
                return BTBLookupResult(True, victim_payload, self.latency_cycles, "victim")
        self.stats.record(False, taken)
        return BTBLookupResult(False, None, 0, "miss")

    @hot_loop
    def lookup_into(
        self, slot: "PredictionSlot", branch_pc: int, taken: bool = True
    ) -> None:
        """:meth:`lookup` mirrored into a reusable slot (no result object)."""
        hit, payload = self._main.access(branch_pc)
        if hit:
            self.stats.record(True, taken)
            slot.set_btb(
                True, payload.target if payload is not None else None,
                self.latency_cycles, "l1",
            )
            return
        if self._victim is not None:
            victim_hit, victim_payload = self._victim.access(branch_pc)
            if victim_hit:
                self._victim.invalidate(branch_pc)
                self._main.insert(branch_pc, victim_payload)
                self.stats.record(True, taken)
                slot.set_btb(
                    True,
                    victim_payload.target if victim_payload is not None else None,
                    self.latency_cycles, "victim",
                )
                return
        self.stats.record(False, taken)
        slot.set_btb(False, None, 0, "miss")

    def peek_hit(self, branch_pc: int) -> bool:
        if self._main.contains(branch_pc):
            return True
        return self._victim is not None and self._victim.contains(branch_pc)

    def update(
        self, branch_pc: int, kind: Optional[BranchKind], target: Optional[int], taken: bool
    ) -> None:
        """Insert/refresh the entry after the branch resolves.

        Conventional BTBs allocate entries for taken branches (a not-taken
        branch needs no target) — the same policy the paper's baseline uses.
        """
        if not allocates_entry(kind, taken):
            return
        entry = BTBEntry(branch_pc=branch_pc, kind=kind, target=target)
        self.stats.insertions += 1
        self._main.insert(branch_pc, entry)

    @property
    def storage_kb(self) -> float:
        return conventional_storage_kb(self.entries, self.ways, self.victim_entries)


class PerfectBTB(BaseBTB):
    """Infinite-capacity, single-cycle BTB (the 'perfect BTB' upper bound)."""

    def __init__(self, latency_cycles: int = 1) -> None:
        super().__init__("perfect_btb")
        self.latency_cycles = latency_cycles
        self._entries: Dict[int, BTBEntry] = {}

    def lookup(self, branch_pc: int, taken: bool = True) -> BTBLookupResult:
        entry = self._entries.get(branch_pc)
        hit = entry is not None
        self.stats.record(hit, taken)
        if hit:
            return BTBLookupResult(True, entry, self.latency_cycles, "perfect")
        return BTBLookupResult(False, None, 0, "miss")

    @hot_loop
    def lookup_into(
        self, slot: "PredictionSlot", branch_pc: int, taken: bool = True
    ) -> None:
        entry = self._entries.get(branch_pc)
        hit = entry is not None
        self.stats.record(hit, taken)
        if hit:
            slot.set_btb(True, entry.target, self.latency_cycles, "perfect")
        else:
            slot.set_btb(False, None, 0, "miss")

    def peek_hit(self, branch_pc: int) -> bool:
        return branch_pc in self._entries

    def update(
        self, branch_pc: int, kind: Optional[BranchKind], target: Optional[int], taken: bool
    ) -> None:
        self.stats.insertions += 1
        self._entries[branch_pc] = BTBEntry(branch_pc=branch_pc, kind=kind, target=target)

    @property
    def storage_kb(self) -> float:
        return float("inf")


# --------------------------------------------------------------------------- #
# Registry factories
# --------------------------------------------------------------------------- #

@BTB_REGISTRY.register("conventional")
def _build_conventional(ctx: BuildContext, **params: Any) -> ConventionalBTB:
    """Generic conventional BTB; geometry comes entirely from the spec."""
    return ConventionalBTB(**params)


@BTB_REGISTRY.register("conventional_1k")
def _build_conventional_1k(ctx: BuildContext, **params: Any) -> ConventionalBTB:
    """The paper's baseline: 1K entries plus a 64-entry victim buffer."""
    params.setdefault("entries", 1024)
    params.setdefault("victim_entries", 64)
    return ConventionalBTB(**params)


@BTB_REGISTRY.register("ideal_16k")
def _build_ideal_16k(ctx: BuildContext, **params: Any) -> ConventionalBTB:
    """16K entries at first-level latency (the IdealBTB of Figure 7)."""
    params.setdefault("entries", 16 * 1024)
    params.setdefault("latency_cycles", 1)
    params.setdefault("name", "ideal_btb_16k")
    return ConventionalBTB(**params)


@BTB_REGISTRY.register("perfect")
def _build_perfect(ctx: BuildContext, **params: Any) -> PerfectBTB:
    return PerfectBTB(**params)

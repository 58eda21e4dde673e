"""Two-level hierarchical BTB.

The aggressive conventional design evaluated in Section 2.3 / Figure 2: a
1K-entry first level with single-cycle access backed by a 16K-entry second
level with a 4-cycle access latency.  Fills of the first level are *reactive*:
a first-level miss probes the second level and, on a hit there, copies the
entry up — but the core has already been exposed to the second-level latency
by then, which is exactly the timeliness problem Confluence removes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.branch.btb_base import BaseBTB, BTBEntry, BTBLookupResult, allocates_entry
from repro.branch.btb_conventional import conventional_entry_bits
from repro.caches.sram import SetAssociativeCache
from repro.isa.instruction import BranchKind
from repro.registry import BTB_REGISTRY, BuildContext
from repro.staticcheck.markers import hot_loop

if TYPE_CHECKING:  # import cycle guard: unit.py imports btb_base
    from repro.branch.unit import PredictionSlot


class TwoLevelBTB(BaseBTB):
    """1K-entry L1 BTB + 16K-entry L2 BTB with reactive L1 fills."""

    def __init__(
        self,
        l1_entries: int = 1024,
        l2_entries: int = 16 * 1024,
        ways: int = 4,
        l1_latency_cycles: int = 1,
        l2_latency_cycles: int = 4,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or "two_level_btb")
        self.l1_entries = l1_entries
        self.l2_entries = l2_entries
        self.ways = ways
        self.l1_latency_cycles = l1_latency_cycles
        self.l2_latency_cycles = l2_latency_cycles
        self._l1 = SetAssociativeCache(
            sets=l1_entries // ways, ways=ways, name=f"{self.name}_l1", index_shift=2
        )
        self._l2 = SetAssociativeCache(
            sets=l2_entries // ways, ways=ways, name=f"{self.name}_l2", index_shift=2
        )
        self.l1_misses_served_by_l2 = 0

    def lookup(self, branch_pc: int, taken: bool = True) -> BTBLookupResult:
        hit, payload = self._l1.access(branch_pc)
        if hit:
            self.stats.record(True, taken)
            return BTBLookupResult(True, payload, self.l1_latency_cycles, "l1")
        l2_hit, l2_payload = self._l2.access(branch_pc)
        if l2_hit:
            # Reactive fill: the entry moves up, but only after the core has
            # waited out the second-level access.
            self._l1.insert(branch_pc, l2_payload)
            self.l1_misses_served_by_l2 += 1
            self.stats.record(True, taken, second_level=True)
            return BTBLookupResult(True, l2_payload, self.l2_latency_cycles, "l2")
        self.stats.record(False, taken)
        return BTBLookupResult(False, None, 0, "miss")

    @hot_loop
    def lookup_into(
        self, slot: "PredictionSlot", branch_pc: int, taken: bool = True
    ) -> None:
        """:meth:`lookup` mirrored into a reusable slot (no result object)."""
        hit, payload = self._l1.access(branch_pc)
        if hit:
            self.stats.record(True, taken)
            slot.set_btb(
                True, payload.target if payload is not None else None,
                self.l1_latency_cycles, "l1",
            )
            return
        l2_hit, l2_payload = self._l2.access(branch_pc)
        if l2_hit:
            self._l1.insert(branch_pc, l2_payload)
            self.l1_misses_served_by_l2 += 1
            self.stats.record(True, taken, second_level=True)
            slot.set_btb(
                True, l2_payload.target if l2_payload is not None else None,
                self.l2_latency_cycles, "l2",
            )
            return
        self.stats.record(False, taken)
        slot.set_btb(False, None, 0, "miss")

    def peek_hit(self, branch_pc: int) -> bool:
        return self._l1.contains(branch_pc) or self._l2.contains(branch_pc)

    def update(
        self, branch_pc: int, kind: Optional[BranchKind], target: Optional[int], taken: bool
    ) -> None:
        if not allocates_entry(kind, taken):
            return
        entry = BTBEntry(branch_pc=branch_pc, kind=kind, target=target)
        self.stats.insertions += 1
        self._l1.insert(branch_pc, entry)
        self._l2.insert(branch_pc, entry)

    @property
    def storage_kb(self) -> float:
        l1_bits = self.l1_entries * conventional_entry_bits(self.l1_entries, self.ways)
        l2_bits = self.l2_entries * conventional_entry_bits(self.l2_entries, self.ways)
        return (l1_bits + l2_bits) / 8 / 1024

    @property
    def second_level_storage_kb(self) -> float:
        return self.l2_entries * conventional_entry_bits(self.l2_entries, self.ways) / 8 / 1024


@BTB_REGISTRY.register("two_level")
def _build_two_level(ctx: BuildContext, **params: Any) -> TwoLevelBTB:
    return TwoLevelBTB(**params)

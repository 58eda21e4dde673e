"""PhantomBTB: a virtualized hierarchical BTB with temporal-group prefetching.

PhantomBTB [Burcea & Moshovos, ASPLOS 2009] keeps a small conventional
first-level BTB per core and spills *temporal groups* of entries that missed
consecutively into LLC blocks through predictor virtualization.  A miss in the
first level probes the virtual second level with the missing branch's code
region; on a hit, the group's entries are moved into a small prefetch buffer
next to the first level.

Per Section 4.2.2 of the Confluence paper, the evaluated configuration is:

* 1K-entry, 4-way first-level BTB with a 64-entry prefetch buffer,
* six entries packed per temporal group (one LLC block),
* 4K LLC blocks dedicated to groups (256 KB virtualized in the LLC),
* groups tagged with the 32-instruction code region of their leading entry,
* the virtual table is shared by all cores running the same workload.

The group-fetch latency is an LLC round trip; the trigger miss itself is not
eliminated (the group arrives too late for it), which is the fundamental
coverage/timeliness limitation the paper discusses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional

from repro.branch.btb_base import BaseBTB, BTBEntry, BTBLookupResult, allocates_entry, holds_entry
from repro.branch.btb_conventional import check_whole_sets, conventional_entry_bits
from repro.caches.llc import SharedLLC
from repro.caches.sram import SetAssociativeCache
from repro.isa.instruction import BranchKind
from repro.registry import BTB_REGISTRY, BuildContext, check_count

#: Instructions per temporal-group tag region (Section 4.2.2).
_REGION_INSTRUCTIONS = 32
_REGION_BYTES = _REGION_INSTRUCTIONS * 4


class PhantomBTB(BaseBTB):
    """First-level BTB + prefetch buffer + LLC-virtualized temporal groups."""

    def __init__(
        self,
        l1_entries: int = 1024,
        ways: int = 4,
        prefetch_buffer_entries: int = 64,
        entries_per_group: int = 6,
        group_capacity: int = 4096,
        l1_latency_cycles: int = 1,
        llc: Optional[SharedLLC] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or "phantom_btb")
        check_count("l1_entries", l1_entries, 1)
        check_count("ways", ways, 1)
        check_count("prefetch_buffer_entries", prefetch_buffer_entries, 1)
        check_count("entries_per_group", entries_per_group, 1)
        check_count("group_capacity", group_capacity, 1)
        check_count("l1_latency_cycles", l1_latency_cycles, 1)
        check_whole_sets("l1_entries", l1_entries, ways)
        self.l1_entries = l1_entries
        self.ways = ways
        self.prefetch_buffer_entries = prefetch_buffer_entries
        self.entries_per_group = entries_per_group
        self.group_capacity = group_capacity
        self.l1_latency_cycles = l1_latency_cycles
        self.llc = llc
        self._llc_region_name = f"{self.name}_groups"
        if llc is not None:
            llc.reserve_region(self._llc_region_name, group_capacity)
        self._l1 = SetAssociativeCache(
            sets=l1_entries // ways, ways=ways, name=f"{self.name}_l1", index_shift=2
        )
        self._prefetch_buffer = SetAssociativeCache(
            sets=1, ways=prefetch_buffer_entries, name=f"{self.name}_pb"
        )
        # Virtual second level: region tag -> list of entries, LRU-ordered and
        # capped at group_capacity groups (each group occupies one LLC block).
        self._groups: "OrderedDict[int, List[BTBEntry]]" = OrderedDict()
        # Group currently being assembled from consecutive L1 misses.
        self._forming: List[BTBEntry] = []
        self._forming_region: Optional[int] = None
        # Group fetched from the LLC but not yet arrived: it is staged into
        # the prefetch buffer at the *next* first-level miss, approximating
        # the LLC round-trip delay the paper charges PhantomBTB for.
        self._arriving: List[BTBEntry] = []
        self.group_fetches = 0
        self.group_writes = 0
        self.prefetch_buffer_hits = 0

    @staticmethod
    def _region_of(branch_pc: int) -> int:
        return branch_pc // _REGION_BYTES

    def lookup(self, branch_pc: int, taken: bool = True) -> BTBLookupResult:
        hit, payload = self._l1.access(branch_pc)
        if hit:
            self.stats.record(True, taken)
            return BTBLookupResult(True, payload, self.l1_latency_cycles, "l1")
        pb_hit, pb_payload = self._prefetch_buffer.access(branch_pc)
        if pb_hit:
            # Promote into the first level on use.
            self._prefetch_buffer.invalidate(branch_pc)
            self._l1.insert(branch_pc, pb_payload)
            self.prefetch_buffer_hits += 1
            self.stats.record(True, taken)
            return BTBLookupResult(True, pb_payload, self.l1_latency_cycles, "prefetch_buffer")
        # First-level miss: the group fetched by the *previous* miss has had
        # time to arrive by now; stage it, then trigger a new virtual-table
        # probe for this region.
        self._stage_arrived_group()
        self._fetch_group(branch_pc)
        self.stats.record(False, taken, second_level=True)
        return BTBLookupResult(False, None, 0, "miss")

    def _stage_arrived_group(self) -> None:
        for entry in self._arriving:
            if not self._l1.contains(entry.branch_pc):
                self._prefetch_buffer.insert(entry.branch_pc, entry)
        self._arriving = []

    def _fetch_group(self, branch_pc: int) -> None:
        """Probe the virtualized table and start fetching a group."""
        region = self._region_of(branch_pc)
        group = self._groups.get(region)
        if group is None:
            return
        self._groups.move_to_end(region)
        self.group_fetches += 1
        if self.llc is not None:
            self.llc.read_metadata(self._llc_region_name)
        self._arriving = list(group)

    def peek_hit(self, branch_pc: int) -> bool:
        return self._l1.contains(branch_pc) or self._prefetch_buffer.contains(branch_pc)

    def update(
        self, branch_pc: int, kind: Optional[BranchKind], target: Optional[int], taken: bool
    ) -> None:
        if not allocates_entry(kind, taken):
            return
        entry = self._l1.peek(branch_pc)
        if not holds_entry(entry, kind, target):
            entry = BTBEntry(branch_pc=branch_pc, kind=kind, target=target)
        self.stats.insertions += 1
        was_present = self._l1.contains(branch_pc) or self._prefetch_buffer.contains(branch_pc)
        self._l1.insert(branch_pc, entry)
        if not was_present:
            self._append_to_group(entry)

    def _append_to_group(self, entry: BTBEntry) -> None:
        """Temporal grouping: consecutive first-level misses share a group."""
        if not self._forming:
            self._forming_region = self._region_of(entry.branch_pc)
        self._forming.append(entry)
        if len(self._forming) >= self.entries_per_group:
            self._commit_group()

    def _commit_group(self) -> None:
        if not self._forming or self._forming_region is None:
            return
        self._groups[self._forming_region] = list(self._forming)
        self._groups.move_to_end(self._forming_region)
        self.group_writes += 1
        if self.llc is not None:
            self.llc.write_metadata(self._llc_region_name)
        while len(self._groups) > self.group_capacity:
            self._groups.popitem(last=False)
        self._forming = []
        self._forming_region = None

    @property
    def storage_kb(self) -> float:
        """Dedicated per-core storage (the virtual table lives in the LLC)."""
        l1_bits = self.l1_entries * conventional_entry_bits(self.l1_entries, self.ways)
        pb_bits = self.prefetch_buffer_entries * (48 + 30 + 2 + 1)
        return (l1_bits + pb_bits) / 8 / 1024


@BTB_REGISTRY.register("phantom")
def _build_phantom(ctx: BuildContext, **params: Any) -> PhantomBTB:
    """PhantomBTB virtualizes its temporal groups in the context's LLC."""
    params.setdefault("llc", ctx.llc)
    return PhantomBTB(**params)

"""AirBTB: the block-based BTB of Confluence (Section 3.1-3.3).

AirBTB is organized as a set-associative cache of *bundles*, one per
instruction block resident in the L1-I.  A bundle carries a single tag (the
block address), a 16-bit branch bitmap identifying which instruction slots
hold branches, and a fixed number of branch entries (offset, type, target).
Blocks whose branch count exceeds the bundle capacity spill the excess
entries into a small fully-associative overflow buffer.

Under Confluence, bundle insertions and evictions are driven by the L1-I
(content synchronization).  The class also supports standalone operation with
its own LRU replacement and configurable insertion policy, which the Figure 8
ablation uses to isolate where AirBTB's coverage advantage comes from:

* ``insertion_policy="demand"`` — only the resolved branch's entry is
  inserted on a miss (isolates the *capacity* benefit of the block-based,
  tag-amortized organization),
* ``insertion_policy="eager"`` — the whole block is predecoded on a miss and
  all of its branch entries are installed (adds the *spatial locality*
  benefit),
* synchronized operation under Confluence adds the *prefetching* and
  *block-based organization* benefits (fills ahead of the fetch stream, no
  conflicts between L1-I-resident blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.branch.btb_base import BaseBTB, BTBEntry, BTBLookupResult, allocates_entry, holds_entry
from repro.caches.sram import SetAssociativeCache
from repro.isa.instruction import (
    BLOCK_MASK,
    SLOT_MASK,
    SLOT_SHIFT,
    BranchKind,
    block_address,
    block_offset,
)
from repro.isa.predecode import PredecodedBlock, Predecoder
from repro.registry import BTB_REGISTRY, BuildContext, check_count
from repro.staticcheck.markers import hot_loop

if TYPE_CHECKING:  # import cycle guard: unit.py imports btb_base
    from repro.branch.unit import PredictionSlot


@dataclass(frozen=True)
class AirBTBConfig:
    """AirBTB sizing; defaults are the final design of Section 4.2.2."""

    bundles: int = 512
    ways: int = 4
    branch_entries_per_bundle: int = 3
    overflow_entries: int = 32
    latency_cycles: int = 1
    insertion_policy: str = "eager"  # "eager" or "demand"

    def __post_init__(self) -> None:
        for name in ("bundles", "ways", "branch_entries_per_bundle", "latency_cycles"):
            check_count(name, getattr(self, name), 1)
        check_count("overflow_entries", self.overflow_entries, 0)
        if self.insertion_policy not in ("eager", "demand"):
            raise ValueError("insertion_policy must be 'eager' or 'demand'")
        if self.bundles % self.ways:
            raise ValueError("bundle count must be divisible by associativity")

    @property
    def storage_kb(self) -> float:
        """Storage estimate following the paper's entry breakdown.

        Each bundle: block tag (48-bit address minus 6 offset bits and the
        index bits), a 16-bit branch bitmap and B entries of 4-bit offset,
        2-bit type and 30-bit target.  The overflow buffer entries carry a
        full branch-PC tag.
        """
        sets = self.bundles // self.ways
        index_bits = max(0, sets.bit_length() - 1)
        tag_bits = 48 - 6 - index_bits
        bundle_bits = tag_bits + 16 + self.branch_entries_per_bundle * (4 + 2 + 30) + 1
        overflow_bits = self.overflow_entries * (48 + 2 + 30 + 1)
        return (self.bundles * bundle_bits + overflow_bits) / 8 / 1024


class _Bundle:
    """Branch entries of one instruction block."""

    __slots__ = ("block_addr", "bitmap", "entries")

    def __init__(self, block_addr: int, bitmap: int = 0) -> None:
        self.block_addr = block_addr
        self.bitmap = bitmap
        self.entries: Dict[int, BTBEntry] = {}


class AirBTB(BaseBTB):
    """Block-based BTB with eager insertion and an overflow buffer.

    Standalone eager insertion predecodes a missing block through
    ``predecoder``; without one, every insertion is a single entry.
    """

    def __init__(
        self,
        config: Optional[AirBTBConfig] = None,
        predecoder: Optional[Predecoder] = None,
        name: str = "airbtb",
    ) -> None:
        super().__init__(name)
        self.config = config or AirBTBConfig()
        self.predecoder = predecoder
        self._bundles = SetAssociativeCache(
            sets=self.config.bundles // self.config.ways,
            ways=self.config.ways,
            name=f"{name}_bundles",
            index_shift=6,
        )
        self._overflow = (
            SetAssociativeCache(
                sets=1, ways=self.config.overflow_entries, name=f"{name}_overflow"
            )
            if self.config.overflow_entries > 0
            else None
        )
        #: When True the bundle array is managed externally (synchronized with
        #: the L1-I through on_block_fill/on_block_evict); standalone use
        #: keeps it False and relies on the internal LRU.
        self.synchronized = False
        self.bundle_insertions = 0
        self.bundle_evictions = 0
        self.overflow_insertions = 0

    # ------------------------------------------------------------------ #
    # Lookup / update (BaseBTB interface)
    # ------------------------------------------------------------------ #

    def lookup(self, branch_pc: int, taken: bool = True) -> BTBLookupResult:
        block = block_address(branch_pc)
        offset = block_offset(branch_pc)
        hit, bundle = self._bundles.access(block)
        if hit and bundle is not None and (bundle.bitmap >> offset) & 1:
            entry = bundle.entries.get(offset)
            if entry is not None:
                self.stats.record(True, taken)
                return BTBLookupResult(True, entry, self.config.latency_cycles, "l1")
            overflow_hit, overflow_entry = (
                self._overflow.access(branch_pc) if self._overflow is not None else (False, None)
            )
            if overflow_hit:
                self.stats.record(True, taken)
                return BTBLookupResult(
                    True, overflow_entry, self.config.latency_cycles, "overflow"
                )
        self.stats.record(False, taken)
        return BTBLookupResult(False, None, 0, "miss")

    @hot_loop
    def lookup_into(
        self, slot: "PredictionSlot", branch_pc: int, taken: bool = True
    ) -> None:
        """:meth:`lookup` mirrored into a reusable slot (no result object)."""
        offset = (branch_pc >> SLOT_SHIFT) & SLOT_MASK
        hit, bundle = self._bundles.access(branch_pc & BLOCK_MASK)
        if hit and bundle is not None and (bundle.bitmap >> offset) & 1:
            entry = bundle.entries.get(offset)
            if entry is not None:
                self.stats.record(True, taken)
                slot.set_btb(True, entry.target, self.config.latency_cycles, "l1")
                return
            if self._overflow is not None:
                overflow_hit, overflow_entry = self._overflow.access(branch_pc)
                if overflow_hit:
                    self.stats.record(True, taken)
                    slot.set_btb(
                        True,
                        overflow_entry.target if overflow_entry is not None else None,
                        self.config.latency_cycles, "overflow",
                    )
                    return
        self.stats.record(False, taken)
        slot.set_btb(False, None, 0, "miss")

    def peek_hit(self, branch_pc: int) -> bool:
        block = block_address(branch_pc)
        offset = block_offset(branch_pc)
        bundle = self._bundles.peek(block)
        if bundle is not None and (bundle.bitmap >> offset) & 1:
            if offset in bundle.entries:
                return True
            return self._overflow is not None and self._overflow.contains(branch_pc)
        return False

    def update(
        self, branch_pc: int, kind: Optional[BranchKind], target: Optional[int], taken: bool
    ) -> None:
        """Insert/refresh on branch resolution.

        Under Confluence the bundle normally already exists (the block was
        predecoded on its way into the L1-I), so this is a refresh.  In
        standalone operation the update allocates bundles according to the
        configured insertion policy.
        """
        if not allocates_entry(kind, taken):
            return
        self.stats.insertions += 1
        block = branch_pc & BLOCK_MASK
        bundle = self._bundles.peek(block)
        if bundle is not None:
            held = bundle.entries.get((branch_pc >> SLOT_SHIFT) & SLOT_MASK)
            if holds_entry(held, kind, target):
                return  # the bundle already holds this very entry
        else:
            if self.synchronized:
                # Content is mirrored from the L1-I; a missing bundle means the
                # block is not resident, so nothing is allocated here.
                return
            if self.config.insertion_policy == "eager":
                bundle = self._install_block(block)
            if bundle is None:
                bundle = _Bundle(block)
                self._install_bundle(bundle)
        self._add_entry(
            bundle,
            BTBEntry(branch_pc=branch_pc, kind=kind, target=target),
        )

    # ------------------------------------------------------------------ #
    # Content synchronization with the L1-I (Confluence)
    # ------------------------------------------------------------------ #

    def on_block_fill(self, predecoded: PredecodedBlock, demand: bool = False) -> None:
        """Install the bundle for a block arriving in the L1-I."""
        self._install_predecoded(predecoded)

    def on_block_evict(self, block_addr: int) -> None:
        """Drop the bundle of a block leaving the L1-I."""
        bundle = self._bundles.peek(block_addr)
        if bundle is None:
            return
        self._drop_overflow_entries(bundle)
        self._bundles.invalidate(block_addr)
        self.bundle_evictions += 1

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _drop_overflow_entries(self, bundle: _Bundle) -> None:
        """Remove this block's spilled entries from the overflow buffer."""
        bitmap = bundle.bitmap
        if self._overflow is None:
            return
        for offset in range(16):
            if (bitmap >> offset) & 1 and offset not in bundle.entries:
                self._overflow.invalidate(bundle.block_addr + offset * 4)

    def _install_block(self, block_addr: int) -> Optional[_Bundle]:
        """Predecode and install the whole block (eager insertion)."""
        if self.predecoder is None:
            return None
        predecoded = self.predecoder.predecode(block_addr)
        if predecoded is None:
            return None
        return self._install_predecoded(predecoded)

    def _install_predecoded(self, predecoded: PredecodedBlock) -> _Bundle:
        """Install a block's bundle; its descriptors are the entries.

        A block holds one branch per slot, so the first
        ``branch_entries_per_bundle`` descriptors fill a new bundle and the
        rest spill to the overflow buffer, in offset order.
        """
        block_addr = predecoded.block_address
        existing = self._bundles.peek(block_addr)
        if existing is not None:
            self._bundles.touch(block_addr)
            return existing
        bundle = _Bundle(block_addr, bitmap=predecoded.bitmap)
        entries = bundle.entries
        capacity = self.config.branch_entries_per_bundle
        for descriptor in predecoded.branches:
            if len(entries) < capacity:
                entries[descriptor.offset] = descriptor
            elif self._overflow is not None:
                self._overflow.insert(descriptor.branch_pc, descriptor)
                self.overflow_insertions += 1
        self._install_bundle(bundle)
        return bundle

    def _install_bundle(self, bundle: _Bundle) -> None:
        """Insert a bundle; the one it displaces takes its overflow entries along."""
        victim = self._bundles.insert(bundle.block_addr, bundle)
        if victim is not None:
            self.bundle_evictions += 1
            self._drop_overflow_entries(victim[1])
        self.bundle_insertions += 1

    def _add_entry(self, bundle: _Bundle, entry: BTBEntry) -> None:
        offset = block_offset(entry.branch_pc)
        bundle.bitmap |= 1 << offset
        self._place_entry(bundle, offset, entry)

    def _place_entry(self, bundle: _Bundle, offset: int, entry: BTBEntry) -> None:
        if offset in bundle.entries:
            bundle.entries[offset] = entry
            return
        if len(bundle.entries) < self.config.branch_entries_per_bundle:
            bundle.entries[offset] = entry
            return
        # Bundle full: spill to the overflow buffer (if the design has one).
        if self._overflow is not None:
            self._overflow.insert(entry.branch_pc, entry)
            self.overflow_insertions += 1

    @property
    def storage_kb(self) -> float:
        return self.config.storage_kb

    @property
    def resident_bundles(self) -> int:
        return self._bundles.occupancy()


@BTB_REGISTRY.register("airbtb_standalone")
def _build_airbtb_standalone(ctx: BuildContext, **params: Any) -> AirBTB:
    """A bare AirBTB with internal LRU (no Confluence around it).

    Used by component-level coverage studies (the Figure 8 capacity and
    spatial-locality steps); the full design point uses the ``airbtb``
    component, which wires in Confluence.
    """
    predecoder = Predecoder(ctx.program.image) if ctx.program is not None else None
    config = AirBTBConfig(**params) if params else None
    return AirBTB(config=config, predecoder=predecoder)

"""L1 instruction cache model.

The paper's configuration (Table 1) is a 32 KB, 4-way set-associative cache
with 64 B blocks.  Its 2-cycle load-to-use latency is hidden by the fetch
pipeline, so only misses stall the modelled core.  The cache exposes a fill
listener interface: Confluence registers a listener so that every block
brought into the L1-I (demand or prefetch) is also predecoded and inserted
into AirBTB, and every eviction removes the corresponding AirBTB bundle —
that content synchronization is the heart of the design.  The cache itself
notifies listeners of the victims its set-associative store hands back, so
neither that store nor a listener needs a reference to the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

from repro.caches.sram import CacheStats, SetAssociativeCache
from repro.isa.instruction import BLOCK_MASK, BLOCK_SIZE_BYTES, block_address
from repro.registry import check_count


@dataclass(frozen=True)
class L1IConfig:
    """Geometry of the L1 instruction cache.

    Blocks are always :data:`BLOCK_SIZE_BYTES`, the size the traces, the
    prefetchers and :func:`block_address` use, so they are not a field.
    """

    size_bytes: int = 32 * 1024
    associativity: int = 4

    def __post_init__(self) -> None:
        check_count("size_bytes", self.size_bytes, 1)
        check_count("associativity", self.associativity, 1)
        if self.size_bytes % (self.associativity * BLOCK_SIZE_BYTES):
            raise ValueError("cache size must be a multiple of way size")

    @property
    def block_count(self) -> int:
        return self.size_bytes // BLOCK_SIZE_BYTES

    @property
    def sets(self) -> int:
        return self.block_count // self.associativity


class FillListener(Protocol):
    """Observer notified when L1-I content changes (used by Confluence)."""

    def on_block_fill(self, block_addr: int, demand: bool) -> None:
        """Called after ``block_addr`` is installed in the L1-I."""

    def on_block_evict(self, block_addr: int) -> None:
        """Called after ``block_addr`` is evicted from the L1-I."""


class InstructionCache:
    """Presence-only L1-I model with fill/evict listeners.

    Lookups and fills are keyed by any address within a block; the cache
    normalizes to the 64 B block address.
    """

    def __init__(self, config: Optional[L1IConfig] = None, name: str = "l1i") -> None:
        self.config = config or L1IConfig()
        self._listeners: List[FillListener] = []
        self._cache = SetAssociativeCache(
            sets=self.config.sets,
            ways=self.config.associativity,
            name=name,
            index_shift=BLOCK_SIZE_BYTES.bit_length() - 1,
        )
        self.demand_fills = 0
        self.prefetch_fills = 0

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def add_listener(self, listener: FillListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: FillListener) -> None:
        self._listeners.remove(listener)

    def contains(self, address: int) -> bool:
        """Presence check (no LRU update, no statistics)."""
        return self._cache.contains(address & BLOCK_MASK)

    def access(self, address: int) -> bool:
        """Demand access to the block containing ``address``.

        Returns True on a hit.  A miss does not implicitly fill the cache;
        the caller decides when the block arrives (see :meth:`fill`), which
        lets the frontend model fill latency and prefetch timeliness.
        """
        hit, _ = self._cache.access(address & BLOCK_MASK)
        return hit

    def fill(self, address: int, demand: bool = True) -> Optional[int]:
        """Install the block containing ``address``; returns evicted block.

        Fill listeners observe both the insertion and any eviction it causes,
        the eviction first, keeping structures that mirror L1-I content
        (AirBTB) synchronized.
        """
        block = block_address(address)
        if self._cache.contains(block):
            self._cache.touch(block)
            return None
        victim = self._cache.insert(block)
        evicted: Optional[int] = None
        if victim is not None:
            evicted = victim[0]
            for listener in self._listeners:
                listener.on_block_evict(evicted)
        if demand:
            self.demand_fills += 1
        else:
            self.prefetch_fills += 1
        for listener in self._listeners:
            listener.on_block_fill(block, demand)
        return evicted

    def touch(self, address: int) -> bool:
        """Refresh the LRU position of a resident block."""
        return self._cache.touch(block_address(address))

    def invalidate(self, address: int) -> bool:
        block = block_address(address)
        present = self._cache.invalidate(block)
        if present:
            for listener in self._listeners:
                listener.on_block_evict(block)
        return present

    def resident_blocks(self) -> List[int]:
        return sorted(self._cache.keys())

    @property
    def block_capacity(self) -> int:
        return self.config.block_count

    def __len__(self) -> int:
        return self._cache.occupancy()

"""Generic set-associative cache with true-LRU replacement.

All cache-like structures in the reproduction (L1-I, conventional BTBs,
victim/overflow buffers, the LLC) are built on this model.  Keys are block
addresses (or any integer tag); the cache does not store data contents, only
presence, which is all trace-driven frontend simulation needs.  An insertion
hands its victim back to the caller, which handles it where it inserts, so
the cache holds no reference to its owner.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0


class SetAssociativeCache:
    """Set-associative cache over integer keys with true-LRU replacement.

    The cache maps a key to an optional payload object.  ``sets * ways`` gives
    the total entry capacity.  A ``ways`` equal to the total entry count and
    ``sets == 1`` models a fully-associative structure.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        name: str = "cache",
        index_shift: int = 0,
    ) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("cache must have positive sets and ways")
        if sets & (sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {sets}")
        if index_shift < 0:
            raise ValueError("index_shift cannot be negative")
        self.sets = sets
        self.ways = ways
        self.name = name
        self.index_shift = index_shift
        self.stats = CacheStats()
        # One ordered dict per set: key -> payload, in LRU order (oldest first).
        self._storage: List["OrderedDict[int, object]"] = [OrderedDict() for _ in range(sets)]

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def _set_index(self, key: int) -> int:
        """Set selection: keys are byte addresses for most users, so the
        aligned low-order bits are shifted out before indexing."""
        return (key >> self.index_shift) & (self.sets - 1)

    def contains(self, key: int) -> bool:
        """Presence check without updating LRU state or statistics."""
        return key in self._storage[self._set_index(key)]

    def peek(self, key: int) -> Any:
        """Return the payload without updating LRU state or statistics."""
        return self._storage[self._set_index(key)].get(key)

    def lookup(self, key: int) -> Any:
        """Look up ``key``; updates LRU order and statistics.

        Returns the payload (which may be ``None`` if none was stored) on a
        hit, and ``None`` on a miss; use :meth:`access` when the distinction
        between a hit with no payload and a miss matters.
        """
        hit, payload = self.access(key)
        return payload if hit else None

    def access(self, key: int) -> Tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, payload)`` and updates LRU."""
        target_set = self._storage[self._set_index(key)]
        self.stats.lookups += 1
        if key in target_set:
            self.stats.hits += 1
            target_set.move_to_end(key)
            return True, target_set[key]
        self.stats.misses += 1
        return False, None

    def insert(self, key: int, payload: Optional[object] = None) -> Optional[Tuple[int, Any]]:
        """Insert ``key``; returns the evicted ``(key, payload)``, if any.

        Inserting an already-present key refreshes its LRU position and
        payload without evicting anything.
        """
        target_set = self._storage[self._set_index(key)]
        if key in target_set:
            target_set.move_to_end(key)
            target_set[key] = payload
            return None
        victim: Optional[Tuple[int, Any]] = None
        if len(target_set) >= self.ways:
            victim = target_set.popitem(last=False)
            self.stats.evictions += 1
        target_set[key] = payload
        self.stats.insertions += 1
        return victim

    def invalidate(self, key: int) -> bool:
        """Remove ``key`` if present; returns whether it was present."""
        target_set = self._storage[self._set_index(key)]
        if key in target_set:
            del target_set[key]
            return True
        return False

    def touch(self, key: int) -> bool:
        """Refresh LRU position of ``key`` without counting a lookup."""
        target_set = self._storage[self._set_index(key)]
        if key in target_set:
            target_set.move_to_end(key)
            return True
        return False

    def keys(self) -> Iterator[int]:
        for target_set in self._storage:
            yield from target_set.keys()

    def occupancy(self) -> int:
        return sum(len(target_set) for target_set in self._storage)

    def clear(self) -> None:
        for target_set in self._storage:
            target_set.clear()

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self.occupancy()

"""Cache hierarchy substrate.

Provides the generic set-associative cache model plus the two structures the
paper's frontend interacts with: the 32 KB / 4-way / 64 B-block L1 instruction
cache and the shared NUCA last-level cache.  The LLC model also supports the
*predictor virtualization* mechanism used by SHIFT and PhantomBTB: reserving a
number of its blocks to hold prefetcher metadata instead of data.
"""

from repro.caches.sram import CacheStats, SetAssociativeCache
from repro.caches.l1i import InstructionCache, L1IConfig
from repro.caches.llc import SharedLLC, LLCConfig, VirtualizedRegion

__all__ = [
    "SetAssociativeCache",
    "CacheStats",
    "InstructionCache",
    "L1IConfig",
    "SharedLLC",
    "LLCConfig",
    "VirtualizedRegion",
]

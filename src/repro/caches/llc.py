"""Shared last-level cache model with predictor virtualization support.

The paper models a 16-core tiled CMP with a 512 KB-per-core NUCA LLC.  For
instruction-supply studies the LLC's role is twofold:

* it serves L1-I misses (instruction blocks essentially always hit in the
  LLC for server workloads, whose code fits comfortably in the multi-megabyte
  aggregate LLC), exposing the NUCA round-trip latency to the core, and
* it hosts *virtualized* predictor metadata — SHIFT's shared history and
  index, and PhantomBTB's temporal groups — in blocks reserved from its data
  capacity [Burcea et al., Predictor Virtualization].

The model therefore tracks capacity bookkeeping and access latency rather
than data contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.isa.instruction import BLOCK_SIZE_BYTES
from repro.registry import check_count


@dataclass(frozen=True)
class LLCConfig:
    """Aggregate LLC geometry and access latency (Table 1)."""

    slice_kb_per_core: int = 512
    cores: int = 16
    bank_hit_latency_cycles: int = 6
    mesh_hop_cycles: int = 3
    mesh_dimension: int = 4

    def __post_init__(self) -> None:
        for name in (
            "slice_kb_per_core", "cores", "mesh_dimension", "bank_hit_latency_cycles"
        ):
            check_count(name, getattr(self, name), 1)
        check_count("mesh_hop_cycles", self.mesh_hop_cycles, 0)

    @property
    def total_bytes(self) -> int:
        return self.slice_kb_per_core * 1024 * self.cores

    @property
    def total_blocks(self) -> int:
        return self.total_bytes // BLOCK_SIZE_BYTES

    @property
    def average_hops(self) -> int:
        """Average one-way hop count on the 2D mesh between a core and a bank."""
        # For a uniformly-distributed NUCA access on an NxN mesh the average
        # Manhattan distance is ~2N/3 in each dimension; round to an integer
        # hop count.
        return max(1, round(2 * self.mesh_dimension / 3))

    @property
    def round_trip_latency_cycles(self) -> int:
        """Core-to-LLC round trip: request hops + bank access + reply hops."""
        return 2 * self.average_hops * self.mesh_hop_cycles + self.bank_hit_latency_cycles


@dataclass
class VirtualizedRegion:
    """Bookkeeping for predictor metadata embedded in LLC data blocks."""

    name: str
    blocks: int
    reads: int = 0
    writes: int = 0

    @property
    def bytes(self) -> int:
        return self.blocks * BLOCK_SIZE_BYTES


class SharedLLC:
    """Capacity and latency model of the shared LLC.

    Instruction blocks are assumed resident (the aggregate LLC is far larger
    than any of the workloads' instruction footprints), so an instruction
    fetch that misses in the L1-I costs one LLC round trip.  Virtualized
    predictor regions reduce the effective data capacity; the paper accounts
    for this as a negligible performance effect, and so do we, but the model
    tracks it so the area/capacity story stays honest.
    """

    def __init__(self, config: Optional[LLCConfig] = None) -> None:
        self.config = config or LLCConfig()
        self._regions: Dict[str, VirtualizedRegion] = {}
        self.instruction_reads = 0
        self.metadata_reads = 0
        self.metadata_writes = 0

    @property
    def round_trip_latency_cycles(self) -> int:
        return self.config.round_trip_latency_cycles

    def reserve_region(self, name: str, blocks: int) -> VirtualizedRegion:
        """Reserve ``blocks`` LLC blocks for virtualized predictor metadata."""
        if blocks < 0:
            raise ValueError("cannot reserve a negative number of blocks")
        reserved = sum(region.blocks for region in self._regions.values())
        if reserved + blocks > self.config.total_blocks:
            raise ValueError(
                f"cannot reserve {blocks} blocks: only "
                f"{self.config.total_blocks - reserved} remain"
            )
        region = VirtualizedRegion(name=name, blocks=blocks)
        self._regions[name] = region
        return region

    def region(self, name: str) -> VirtualizedRegion:
        return self._regions[name]

    @property
    def reserved_blocks(self) -> int:
        return sum(region.blocks for region in self._regions.values())

    def fetch_instruction_block(self, block_addr: int) -> int:
        """Serve an instruction block to an L1-I; returns latency in cycles."""
        self.instruction_reads += 1
        return self.round_trip_latency_cycles

    def read_metadata(self, region_name: str, blocks: int = 1) -> int:
        """Read virtualized predictor metadata; returns latency in cycles."""
        region = self._regions[region_name]
        region.reads += blocks
        self.metadata_reads += blocks
        return self.round_trip_latency_cycles

    def write_metadata(self, region_name: str, blocks: int = 1) -> int:
        """Append/update virtualized predictor metadata; returns latency."""
        region = self._regions[region_name]
        region.writes += blocks
        self.metadata_writes += blocks
        return self.round_trip_latency_cycles

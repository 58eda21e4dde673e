"""Hardware predecoder model.

Confluence scans every instruction block on its way into the L1-I, extracting
the branch kind and the PC-relative displacement of each branch.  This module
models that scan and produces the exact metadata AirBTB stores: per-branch
(offset, kind, target) descriptors plus the 16-bit branch bitmap of the block.
A descriptor *is* the entry AirBTB installs, so a predecoded block is
installed without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.isa.block import InstructionBlock
from repro.isa.instruction import BranchKind, INSTRUCTIONS_PER_BLOCK


@dataclass(frozen=True)
class BTBEntry:
    """One branch target buffer entry.

    Defined beside the predecoder, whose descriptors are entries too; BTB
    code imports it from :mod:`repro.branch.btb_base`.
    """

    branch_pc: int
    kind: Optional[BranchKind]
    target: Optional[int]


@dataclass(frozen=True)
class BranchDescriptor(BTBEntry):
    """Predecoded metadata for one branch instruction inside a block."""

    offset: int

    def __post_init__(self) -> None:
        if not 0 <= self.offset < INSTRUCTIONS_PER_BLOCK:
            raise ValueError(f"branch offset {self.offset} outside block")


@dataclass(frozen=True)
class PredecodedBlock:
    """Result of predecoding one instruction block."""

    block_address: int
    bitmap: int
    branches: Tuple[BranchDescriptor, ...]

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def branch_at_offset(self, offset: int) -> Optional[BranchDescriptor]:
        for descriptor in self.branches:
            if descriptor.offset == offset:
                return descriptor
        return None


class Predecoder:
    """Scans instruction blocks for branches, as done before L1-I insertion.

    The scan's latency is :class:`~repro.core.confluence.ConfluenceConfig`'s
    ``predecode_latency_cycles``.
    """

    def __init__(self) -> None:
        self.blocks_scanned = 0
        self.branches_extracted = 0

    def predecode(self, block: InstructionBlock) -> PredecodedBlock:
        """Scan ``block`` and return its branch metadata."""
        descriptors = []
        bitmap = 0
        for instruction in block.branches:
            offset = instruction.offset_in_block
            bitmap |= 1 << offset
            descriptors.append(
                BranchDescriptor(
                    branch_pc=instruction.address,
                    kind=instruction.kind,
                    target=instruction.target,
                    offset=offset,
                )
            )
        self.blocks_scanned += 1
        self.branches_extracted += len(descriptors)
        return PredecodedBlock(
            block_address=block.base_address,
            bitmap=bitmap,
            branches=tuple(descriptors),
        )

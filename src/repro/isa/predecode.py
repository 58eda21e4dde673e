"""Hardware predecoder model.

Confluence scans every instruction block on its way into the L1-I, extracting
the branch kind and the PC-relative displacement of each branch.  This module
models that scan and produces the exact metadata AirBTB stores: per-branch
(offset, kind, target) descriptors plus the 16-bit branch bitmap of the block.
A descriptor *is* the entry AirBTB installs, so a predecoded block is
installed without a copy.

A block's scan depends only on the program, so synthesis builds each code
block's :class:`PredecodedBlock` once, into the program image (a map from
block address to predecoded block), and the :class:`Predecoder` reads it
from there.  Every core and design installs the same descriptor objects:
never mutate one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


class Predecoder:
    """Scans instruction blocks for branches, as done before L1-I insertion.

    ``image`` is the program image (:attr:`SyntheticProgram.image
    <repro.workloads.cfg.SyntheticProgram.image>`).  The scan's latency is
    :class:`~repro.core.confluence.ConfluenceConfig`'s
    ``predecode_latency_cycles``.
    """

    def __init__(self, image: Dict[int, PredecodedBlock]) -> None:
        self.image = image
        self.blocks_scanned = 0
        self.branches_extracted = 0

    def predecode(self, block_addr: int) -> Optional[PredecodedBlock]:
        """The branch metadata of the block at ``block_addr``.

        ``None`` where the program holds no code; only a block that holds
        code counts as a scan.
        """
        predecoded = self.image.get(block_addr)
        if predecoded is not None:
            self.blocks_scanned += 1
            self.branches_extracted += len(predecoded.branches)
        return predecoded

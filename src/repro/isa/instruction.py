"""Branch kinds and instruction-block address arithmetic.

Addresses are plain integers (byte addresses).  Instructions are fixed-size
(4 bytes) and instruction blocks are 64 bytes, i.e. 16 instructions per block,
matching the configuration in Table 1 of the paper.
"""

from __future__ import annotations

import enum

#: Size of one instruction cache block in bytes (Table 1: 64 B blocks).
BLOCK_SIZE_BYTES = 64

#: Size of one instruction in bytes (UltraSPARC III: fixed 4-byte encoding).
INSTRUCTION_SIZE_BYTES = 4

#: Number of instructions that fit in one instruction block.
INSTRUCTIONS_PER_BLOCK = BLOCK_SIZE_BYTES // INSTRUCTION_SIZE_BYTES

#: ``address & BLOCK_MASK`` is :func:`block_address`; hot loops use the mask.
BLOCK_MASK = ~(BLOCK_SIZE_BYTES - 1)

#: ``(address >> SLOT_SHIFT) & SLOT_MASK`` is :func:`block_offset`.
SLOT_SHIFT = INSTRUCTION_SIZE_BYTES.bit_length() - 1
SLOT_MASK = INSTRUCTIONS_PER_BLOCK - 1


class BranchKind(enum.Enum):
    """Branch categories tracked by the BTB designs in the paper.

    AirBTB stores a 2-bit type per branch entry covering conditional,
    unconditional, indirect and return branches.  Calls are direct
    unconditional branches that also push the return-address stack, so they
    are tracked separately here to drive the RAS model, but they map onto the
    ``unconditional`` encoding for storage purposes.
    """

    CONDITIONAL = "conditional"
    UNCONDITIONAL = "unconditional"
    CALL = "call"
    INDIRECT = "indirect"
    INDIRECT_CALL = "indirect_call"
    RETURN = "return"

    @property
    def is_direct(self) -> bool:
        """True when the target is encoded in the instruction (PC-relative)."""
        return self in (BranchKind.CONDITIONAL, BranchKind.UNCONDITIONAL, BranchKind.CALL)

    @property
    def is_call(self) -> bool:
        return self in (BranchKind.CALL, BranchKind.INDIRECT_CALL)

    @property
    def is_indirect(self) -> bool:
        """True when the target must come from the indirect target cache or RAS."""
        return self in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL, BranchKind.RETURN)

    @property
    def is_unconditional(self) -> bool:
        return self is not BranchKind.CONDITIONAL


def block_address(address: int) -> int:
    """Return the base address of the 64-byte block containing ``address``."""
    return address & BLOCK_MASK


def block_offset(address: int) -> int:
    """Return the instruction slot (0..15) of ``address`` within its block."""
    return (address >> SLOT_SHIFT) & SLOT_MASK

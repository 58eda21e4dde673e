"""Instruction-set model used by the Confluence reproduction.

The paper evaluates an UltraSPARC III (RISC, fixed 4-byte instructions)
machine.  The frontend mechanisms it studies only care about a small slice of
the ISA:

* which instructions are branches,
* what kind of branch they are (conditional, unconditional direct, indirect,
  call, return),
* where the branch sits inside its 64-byte instruction block, and
* the PC-relative target encoded in the instruction.

This package provides the 64-byte / 16-instruction block arithmetic, the
branch kinds, and the hardware predecoder that Confluence uses to scan blocks
on their way into the L1-I.  No instruction is an object: a program's image
maps each code block to its :class:`PredecodedBlock` (the branch bitmap and
descriptors a scan yields), built once at synthesis.
"""

from repro.isa.instruction import (
    BLOCK_SIZE_BYTES,
    INSTRUCTION_SIZE_BYTES,
    INSTRUCTIONS_PER_BLOCK,
    BranchKind,
    block_address,
    block_offset,
)
from repro.isa.predecode import BranchDescriptor, PredecodedBlock, Predecoder

__all__ = [
    "BLOCK_SIZE_BYTES",
    "INSTRUCTION_SIZE_BYTES",
    "INSTRUCTIONS_PER_BLOCK",
    "BranchKind",
    "BranchDescriptor",
    "PredecodedBlock",
    "Predecoder",
    "block_address",
    "block_offset",
]

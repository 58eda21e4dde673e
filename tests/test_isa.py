"""Unit tests for the block arithmetic, branch kinds, program image and predecoder."""

from dataclasses import replace

import pytest

from repro.isa import (
    BLOCK_SIZE_BYTES,
    INSTRUCTION_SIZE_BYTES,
    INSTRUCTIONS_PER_BLOCK,
    BranchDescriptor,
    BranchKind,
    Predecoder,
    block_address,
    block_offset,
)
from repro.workloads import synthesize_program


def _terminators_by_block(program):
    """``{block address: [terminator pc, ...]}`` read off the program's CFG."""
    terminators = {}
    for function in program.cfg.functions:
        for block in function.basic_blocks:
            pc = block.terminator_pc
            terminators.setdefault(block_address(pc), []).append(pc)
    return terminators


class TestAddressHelpers:
    def test_block_address_masks_low_bits(self):
        assert block_address(0x1000) == 0x1000
        assert block_address(0x103C) == 0x1000
        assert block_address(0x1040) == 0x1040

    def test_block_offset_is_instruction_slot(self):
        assert block_offset(0x1000) == 0
        assert block_offset(0x1004) == 1
        assert block_offset(0x103C) == 15

    def test_sixteen_instructions_per_block(self):
        assert INSTRUCTIONS_PER_BLOCK == 16


class TestBranchKind:
    @pytest.mark.parametrize(
        "kind", [BranchKind.CONDITIONAL, BranchKind.UNCONDITIONAL, BranchKind.CALL]
    )
    def test_direct_kinds(self, kind):
        assert kind.is_direct

    @pytest.mark.parametrize(
        "kind", [BranchKind.INDIRECT, BranchKind.INDIRECT_CALL, BranchKind.RETURN]
    )
    def test_indirect_kinds(self, kind):
        assert kind.is_indirect
        assert not kind.is_direct

    def test_call_classification(self):
        assert BranchKind.CALL.is_call
        assert BranchKind.INDIRECT_CALL.is_call
        assert not BranchKind.CONDITIONAL.is_call

    def test_conditional_is_not_unconditional(self):
        assert not BranchKind.CONDITIONAL.is_unconditional
        assert BranchKind.UNCONDITIONAL.is_unconditional


class TestInstructionBlock:
    """The program image's 64-byte instruction blocks."""

    def test_branch_listing_and_count(self, tiny_program):
        terminators = _terminators_by_block(tiny_program)
        for base, block in tiny_program.image.items():
            listed = [descriptor.branch_pc for descriptor in block.branches]
            assert listed == terminators.get(base, [])
            assert block.branch_count == len(listed)

    def test_branch_bitmap_sets_branch_slots(self, tiny_program):
        terminators = _terminators_by_block(tiny_program)
        for base, block in tiny_program.image.items():
            bitmap = 0
            for pc in terminators.get(base, []):
                bitmap |= 1 << block_offset(pc)
            assert block.bitmap == bitmap

    def test_iteration_in_offset_order(self, tiny_program):
        for base, block in tiny_program.image.items():
            assert block.block_address == base
            offsets = [descriptor.offset for descriptor in block.branches]
            assert offsets == sorted(set(offsets))
            for descriptor in block.branches:
                assert block_address(descriptor.branch_pc) == base
                assert descriptor.offset == block_offset(descriptor.branch_pc)

    def test_offset_bounds_checked(self):
        with pytest.raises(ValueError):
            BranchDescriptor(branch_pc=0x4000, kind=BranchKind.RETURN, target=None,
                             offset=INSTRUCTIONS_PER_BLOCK)


class TestProgramImage:
    def test_block_grouping(self, tiny_program):
        # Every block an instruction occupies is in the image and nothing
        # else is; keys ascend.
        spanned = set()
        for function in tiny_program.cfg.functions:
            for block in function.basic_blocks:
                for address in range(block.start, block.end, INSTRUCTION_SIZE_BYTES):
                    spanned.add(block_address(address))
        image = tiny_program.image
        assert set(image) == spanned
        assert list(image) == sorted(image)

    def test_straight_line_block_has_no_branches(self, tiny_profile):
        # Basic blocks are shorter than a block, so only code that starts in
        # a block's last slot leaves that block without a terminator.
        program = synthesize_program(replace(tiny_profile, code_base_address=0x4000_003C))
        first = program.image[0x4000_0000]
        assert (first.bitmap, first.branches) == (0, ())
        assert Predecoder(program.image).predecode(0x4000_0000) is first

    def test_footprint_and_branch_statistics(self, tiny_program):
        image = tiny_program.image
        basic_blocks = sum(len(f.basic_blocks) for f in tiny_program.cfg.functions)
        assert tiny_program.footprint_bytes == len(image) * BLOCK_SIZE_BYTES
        assert tiny_program.static_branch_count == basic_blocks


class TestPredecoder:
    def test_predecode_extracts_branches_and_bitmap(self, tiny_program):
        block_of = {
            block.terminator_pc: block
            for function in tiny_program.cfg.functions
            for block in function.basic_blocks
        }
        base, terminators = next(
            (base, pcs) for base, pcs in _terminators_by_block(tiny_program).items()
            if len(pcs) >= 2
        )
        decoded = Predecoder(tiny_program.image).predecode(base)
        assert decoded.block_address == base
        assert decoded.bitmap == sum(1 << block_offset(pc) for pc in terminators)
        expected = []
        for pc in terminators:
            block = block_of[pc]
            target = block.taken_target if block.kind.is_direct else None
            expected.append((pc, block.kind, target, block_offset(pc)))
        assert [
            (d.branch_pc, d.kind, d.target, d.offset) for d in decoded.branches
        ] == expected

    def test_predecoder_counts_work(self, tiny_program):
        image = tiny_program.image
        base, block = next(
            (base, block) for base, block in image.items() if block.branch_count >= 2
        )
        predecoder = Predecoder(image)
        # The scan hands out the image's own block, counting one scan and
        # its branches each time.
        assert predecoder.predecode(base) is block
        assert (predecoder.blocks_scanned, predecoder.branches_extracted) == (
            1, block.branch_count
        )
        assert predecoder.predecode(base) is block
        assert (predecoder.blocks_scanned, predecoder.branches_extracted) == (
            2, 2 * block.branch_count
        )

    def test_address_without_code_returns_none(self, tiny_program):
        image = tiny_program.image
        predecoder = Predecoder(image)
        below = min(image) - BLOCK_SIZE_BYTES
        above = max(image) + BLOCK_SIZE_BYTES
        assert below not in image and above not in image
        assert predecoder.predecode(below) is None
        assert predecoder.predecode(above) is None
        assert (predecoder.blocks_scanned, predecoder.branches_extracted) == (0, 0)

    def test_negative_latency_rejected(self):
        # The scan latency is a Confluence setting: the stall model reads it
        # from ConfluenceConfig, and a demand fill may pay zero cycles.
        from repro.core import ConfluenceConfig

        with pytest.raises(
            ValueError, match="^predecode_latency_cycles must be an int >= 0, got -1$"
        ):
            ConfluenceConfig(predecode_latency_cycles=-1)
        assert ConfluenceConfig(predecode_latency_cycles=0).predecode_latency_cycles == 0

    def test_descriptors_are_the_btb_entries(self, tiny_program):
        from repro.branch.btb_base import BTBEntry

        for block in tiny_program.image.values():
            for descriptor in block.branches:
                assert isinstance(descriptor, BTBEntry)

    def test_image_blocks_predecode_consistently(self, tiny_program):
        image = tiny_program.image
        predecoder = Predecoder(image)
        for base, block in image.items():
            assert predecoder.predecode(base) is block
        assert predecoder.blocks_scanned == len(image)
        assert predecoder.branches_extracted == tiny_program.static_branch_count

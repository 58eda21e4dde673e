"""Unit tests for the instruction, block and predecoder models."""

import pytest

from repro.isa import (
    BLOCK_SIZE_BYTES,
    INSTRUCTIONS_PER_BLOCK,
    BranchKind,
    Instruction,
    InstructionBlock,
    Predecoder,
    ProgramImage,
    block_address,
    block_index,
    block_offset,
)


class TestAddressHelpers:
    def test_block_address_masks_low_bits(self):
        assert block_address(0x1000) == 0x1000
        assert block_address(0x103C) == 0x1000
        assert block_address(0x1040) == 0x1040

    def test_block_index_divides_by_block_size(self):
        assert block_index(0) == 0
        assert block_index(BLOCK_SIZE_BYTES) == 1
        assert block_index(BLOCK_SIZE_BYTES * 7 + 4) == 7

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

    def test_return_classification(self):
        assert BranchKind.RETURN.is_return

    def test_conditional_is_not_unconditional(self):
        assert not BranchKind.CONDITIONAL.is_unconditional
        assert BranchKind.UNCONDITIONAL.is_unconditional

    def test_storage_encoding_fits_two_bits(self):
        for kind in BranchKind:
            assert 0 <= kind.storage_encoding <= 3


class TestInstruction:
    def test_plain_instruction(self):
        instr = Instruction(address=0x2000)
        assert not instr.is_branch
        assert instr.fallthrough == 0x2004

    def test_branch_requires_target_when_direct(self):
        with pytest.raises(ValueError):
            Instruction(address=0x2000, kind=BranchKind.CONDITIONAL)

    def test_indirect_branch_needs_no_target(self):
        instr = Instruction(address=0x2000, kind=BranchKind.RETURN)
        assert instr.is_branch
        assert instr.target is None

    def test_misaligned_address_rejected(self):
        with pytest.raises(ValueError):
            Instruction(address=0x2001)

    def test_target_without_kind_rejected(self):
        with pytest.raises(ValueError):
            Instruction(address=0x2000, target=0x3000)

    def test_block_and_offset_properties(self):
        instr = Instruction(address=0x2044)
        assert instr.block == 0x2040
        assert instr.offset_in_block == 1


class TestInstructionBlock:
    def _block_with_branches(self):
        block = InstructionBlock(0x4000)
        block.add(Instruction(address=0x4000))
        block.add(Instruction(address=0x4004, kind=BranchKind.CONDITIONAL, target=0x5000))
        block.add(Instruction(address=0x4010, kind=BranchKind.RETURN))
        return block

    def test_misaligned_base_rejected(self):
        with pytest.raises(ValueError):
            InstructionBlock(0x4010)

    def test_add_foreign_instruction_rejected(self):
        block = InstructionBlock(0x4000)
        with pytest.raises(ValueError):
            block.add(Instruction(address=0x5000))

    def test_branch_listing_and_count(self):
        block = self._block_with_branches()
        assert block.branch_count == 2
        assert [b.address for b in block.branches] == [0x4004, 0x4010]

    def test_branch_bitmap_sets_branch_slots(self):
        block = self._block_with_branches()
        assert block.branch_bitmap == (1 << 1) | (1 << 4)

    def test_instruction_lookup_by_offset_and_address(self):
        block = self._block_with_branches()
        assert block.instruction_at_offset(1).address == 0x4004
        assert block.instruction_at(0x4010).kind is BranchKind.RETURN
        assert block.instruction_at_offset(2) is None

    def test_offset_bounds_checked(self):
        block = self._block_with_branches()
        with pytest.raises(ValueError):
            block.instruction_at_offset(16)

    def test_iteration_in_offset_order(self):
        block = self._block_with_branches()
        addresses = [instr.address for instr in block]
        assert addresses == sorted(addresses)


class TestProgramImage:
    def _image(self):
        image = ProgramImage()
        image.add_instructions(
            [
                Instruction(address=0x8000),
                Instruction(address=0x8004, kind=BranchKind.CALL, target=0x9000),
                Instruction(address=0x9000, kind=BranchKind.RETURN),
            ]
        )
        return image

    def test_block_grouping(self):
        image = self._image()
        assert image.block_count == 2
        assert image.block_at(0x8004).base_address == 0x8000
        assert 0x9000 in image

    def test_instruction_lookup(self):
        image = self._image()
        assert image.instruction_at(0x8004).kind is BranchKind.CALL
        assert image.instruction_at(0xA000) is None

    def test_footprint_and_branch_statistics(self):
        image = self._image()
        assert image.footprint_bytes == 2 * BLOCK_SIZE_BYTES
        assert image.static_branch_count == 2
        assert image.branch_density() == pytest.approx(1.0)

    def test_address_range(self):
        image = self._image()
        low, high = image.address_range()
        assert low == 0x8000
        assert high == 0x9040

    def test_empty_image(self):
        image = ProgramImage()
        assert image.block_count == 0
        assert image.address_range() == (0, 0)
        assert image.branch_density() == 0.0


class TestPredecoder:
    def test_predecode_extracts_branches_and_bitmap(self):
        block = InstructionBlock(0x4000)
        block.add(Instruction(address=0x4004, kind=BranchKind.CONDITIONAL, target=0x4100))
        block.add(Instruction(address=0x4020, kind=BranchKind.RETURN))
        decoded = Predecoder().predecode(block)
        assert decoded.block_address == 0x4000
        assert decoded.branch_count == 2
        assert decoded.bitmap == (1 << 1) | (1 << 8)
        assert decoded.branch_at_offset(1).target == 0x4100
        assert decoded.branch_at_offset(8).kind is BranchKind.RETURN
        assert decoded.branch_at_offset(2) is None

    def test_predecoder_counts_work(self):
        predecoder = Predecoder()
        block = InstructionBlock(0x4000)
        block.add(Instruction(address=0x4000, kind=BranchKind.RETURN))
        predecoder.predecode(block)
        predecoder.predecode(block)
        assert predecoder.blocks_scanned == 2
        assert predecoder.branches_extracted == 2

    def test_negative_latency_rejected(self):
        # The scan latency is a Confluence setting: the stall model reads it
        # from ConfluenceConfig, and a demand fill may pay zero cycles.
        from repro.core import ConfluenceConfig

        with pytest.raises(
            ValueError, match="^predecode_latency_cycles must be an int >= 0, got -1$"
        ):
            ConfluenceConfig(predecode_latency_cycles=-1)
        assert ConfluenceConfig(predecode_latency_cycles=0).predecode_latency_cycles == 0

    def test_descriptors_are_the_btb_entries(self):
        from repro.branch.btb_base import BTBEntry

        block = InstructionBlock(0x4000)
        block.add(Instruction(address=0x4008, kind=BranchKind.CALL, target=0x9000))
        (descriptor,) = Predecoder().predecode(block).branches
        assert isinstance(descriptor, BTBEntry)
        assert (descriptor.branch_pc, descriptor.offset) == (0x4008, 2)

    def test_image_blocks_predecode_consistently(self, tiny_program):
        predecoder = Predecoder()
        checked = 0
        for block in tiny_program.image.blocks():
            decoded = predecoder.predecode(block)
            assert decoded.bitmap == block.branch_bitmap
            assert decoded.branch_count == block.branch_count
            checked += 1
            if checked >= 50:
                break
        assert checked == 50

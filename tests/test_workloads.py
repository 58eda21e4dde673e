"""Tests for workload profiles, program synthesis and trace generation."""

import dataclasses
import hashlib
import pickle
import sys
from array import array

import pytest

from repro.isa.instruction import BranchKind, block_address, block_offset
from repro.workloads import (
    EVALUATION_WORKLOADS,
    WORKLOAD_PROFILES,
    TraceWalker,
    evaluation_profiles,
    generate_trace,
    get_profile,
    synthesize_program,
)
from repro.workloads.packed import COLUMN_NAMES


class TestProfiles:
    def test_all_paper_workloads_present(self):
        for name in ("oltp_db2", "oltp_oracle", "dss_qry2", "media_streaming", "web_frontend"):
            assert name in WORKLOAD_PROFILES

    def test_evaluation_groups_cover_paper_categories(self):
        assert set(EVALUATION_WORKLOADS) == {
            "OLTP DB2",
            "OLTP Oracle",
            "DSS Qrys",
            "Media Streaming",
            "Web Frontend",
        }

    def test_get_profile_unknown_name(self):
        with pytest.raises(KeyError):
            get_profile("does_not_exist")

    def test_oracle_has_largest_footprint(self):
        footprints = {
            name: profile.approximate_footprint_kb
            for name, profile in WORKLOAD_PROFILES.items()
        }
        assert max(footprints, key=footprints.get) == "oltp_oracle"

    def test_static_branch_density_targets_match_table2(self):
        # Table 2: DB2 3.6, Oracle 2.5, DSS ~3.4, Media 3.5, Web 4.3.
        assert get_profile("oltp_db2").static_branch_density_target == pytest.approx(3.6, abs=0.1)
        oracle = get_profile("oltp_oracle").static_branch_density_target
        assert oracle == pytest.approx(2.5, abs=0.1)
        web = get_profile("web_frontend").static_branch_density_target
        assert web == pytest.approx(4.3, abs=0.1)

    def test_footprints_exceed_l1i_capacity(self):
        for profile in WORKLOAD_PROFILES.values():
            assert profile.approximate_footprint_kb > 32

    def test_scaled_reduces_functions_and_trace(self):
        profile = get_profile("oltp_db2")
        scaled = profile.scaled(0.5)
        assert scaled.functions_per_layer < profile.functions_per_layer
        assert scaled.recommended_trace_instructions < profile.recommended_trace_instructions

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            get_profile("oltp_db2").scaled(0)

    def test_terminator_fractions_validated(self):
        profile = get_profile("oltp_db2")
        with pytest.raises(ValueError):
            dataclasses.replace(profile, conditional_fraction=0.9)

    def test_unaligned_code_base_rejected(self):
        # Instructions are 4 bytes, so a code segment must start on an
        # instruction boundary; the profile is where user input enters.
        profile = get_profile("oltp_db2").scaled(0.05)
        with pytest.raises(ValueError, match="code_base_address 0x40000002 is not 4-byte aligned"):
            dataclasses.replace(profile, code_base_address=0x4000_0002)
        aligned = dataclasses.replace(profile, code_base_address=0x4000_0004)
        assert min(synthesize_program(aligned).image) == 0x4000_0000

    def test_evaluation_profiles_scaling(self):
        profiles = evaluation_profiles(scale=0.2)
        assert len(profiles) == 5
        for label, profile in profiles.items():
            full = WORKLOAD_PROFILES[EVALUATION_WORKLOADS[label]]
            assert profile.functions_per_layer <= full.functions_per_layer


class TestSynthesis:
    def test_program_is_deterministic(self, tiny_profile):
        first = synthesize_program(tiny_profile)
        second = synthesize_program(tiny_profile)
        assert first.footprint_bytes == second.footprint_bytes
        assert first.cfg.functions == second.cfg.functions
        assert first.image == second.image

    def test_entry_points_are_layer0_functions(self, tiny_program):
        # Every operation the walker starts enters the program at a layer-0
        # function, whatever its request type.
        layer0 = {f.entry for f in tiny_program.cfg.functions_in_layer(0)}
        walker = TraceWalker(tiny_program)
        entries = {
            walker._operation_entry(request_type, op_index)
            for request_type in range(tiny_program.profile.request_types)
            for op_index in range(16)
        }
        assert entries <= layer0

    def test_every_function_ends_with_return(self, tiny_program):
        for function in tiny_program.cfg.functions:
            assert function.basic_blocks[-1].kind is BranchKind.RETURN

    def test_basic_blocks_are_contiguous(self, tiny_program):
        for function in tiny_program.cfg.functions:
            blocks = function.basic_blocks
            for previous, current in zip(blocks, blocks[1:], strict=False):
                assert previous.end == current.start

    def test_direct_branch_targets_are_block_starts(self, tiny_program):
        cfg = tiny_program.cfg
        checked = 0
        for function in cfg.functions:
            for block in function.basic_blocks:
                if block.kind in (BranchKind.CONDITIONAL, BranchKind.UNCONDITIONAL):
                    assert cfg.block_starting_at(block.taken_target) is not None
                    checked += 1
        assert checked > 0

    def test_calls_target_deeper_layers(self, tiny_program):
        functions = tiny_program.cfg.functions
        layer_of = {function.entry: function.layer for function in functions}
        for function in functions:
            for block in function.basic_blocks:
                if block.kind is BranchKind.CALL:
                    assert layer_of[block.taken_target] > function.layer

    def test_loop_targets_are_backward_and_local(self, tiny_program):
        for function in tiny_program.cfg.functions:
            starts = [b.start for b in function.basic_blocks]
            for index, block in enumerate(function.basic_blocks):
                if block.is_loop:
                    target_index = starts.index(block.taken_target)
                    assert target_index < index
                    assert index - target_index <= 2

    def test_image_matches_cfg_branches(self, tiny_program):
        # Each terminator is predecoded at its slot with its kind and, for a
        # direct branch, its static target.
        cfg = tiny_program.cfg
        image = tiny_program.image
        for function in cfg.functions:
            for block in function.basic_blocks:
                pc = block.terminator_pc
                predecoded = image[block_address(pc)]
                assert (predecoded.bitmap >> block_offset(pc)) & 1
                (descriptor,) = [d for d in predecoded.branches if d.branch_pc == pc]
                assert descriptor.kind is block.kind
                if block.kind.is_direct:
                    assert descriptor.target == block.taken_target is not None
                else:
                    assert descriptor.target is None

    def test_static_branch_density_close_to_target(self, tiny_program):
        density = tiny_program.static_branch_count / len(tiny_program.image)
        target = tiny_program.profile.static_branch_density_target
        assert abs(density - target) / target < 0.35

    @pytest.mark.parametrize("name, scale, digest", [
        ("oltp_db2", 0.1, "7a1cff6b479f2f3d95b627ef6cc6de366a4c7c794727da179f553275c73d8b46"),
        ("oltp_oracle", 0.1, "5f88bad837d2fdf60c5adcc7e84c5bc7dd6ede62894a176d2adbd70798ac8cda"),
        ("dss_qry2", 0.1, "bc427a09c0557d3c0907a7db9790ad0f35f3afd3b69bfed6797440e3ba707bea"),
        ("dss_qry8", 0.1, "b4283e7c73345243350196e938774862c85d1986739ecefc893ad1c2e2562fe3"),
        ("dss_qry17", 0.1, "d0d81f5df1e3a39e5b9ac835b9a8ad8e4bd5f6d89d37c7b1ef004364e7852c48"),
        ("dss_qry20", 0.1, "f24de90014e7a6cd203c0bbcb314eac526c4e0a2322b1cb21870ce8e95990681"),
        ("media_streaming", 0.1,
         "490ff5917f507e0fd2e7966d7a07b5fb4f16674f637993f2c50c145e50251804"),
        ("web_frontend", 0.1, "65e905c47a172134b73e65888cf1a5956c5d9260081c3809811b648382b39f4a"),
        ("oltp_oracle", 0.45, "3c724c85bb97d1f3e66583501f49665eafddb52e5595d7e78009e374f81c1d6d"),
    ])
    def test_program_image_is_pinned(self, name, scale, digest):
        # Recorded from a predecoder scan of every block of the per-instruction
        # image the program was once built as; every block's address, bitmap
        # and descriptors, in address order.
        image = synthesize_program(get_profile(name).scaled(scale)).image
        h = hashlib.sha256()
        for base in sorted(image):
            block = image[base]
            h.update(repr((base, block.bitmap, tuple(
                (d.branch_pc, d.kind.value, d.target, d.offset) for d in block.branches
            ))).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("name, scale, digest", [
        ("oltp_db2", 0.1, "6ec12e16fdbaf5f88235cf09dbc4d80f09d00691d57f408cb4d05137bc6837b6"),
        ("oltp_oracle", 0.1, "5ebf83e2f3ea8d34058ff734dcd4eaf22390309ba9716b3c3abeb1a08568aa2f"),
        ("dss_qry2", 0.1, "943b5e4f6b06f6e6b9081cb26d92617f749f6815872dd430e299dae839dd8937"),
        ("dss_qry8", 0.1, "69e4608337d2ae6a3095a76003bffe8412ca599c3d82a934ecd5f87bc234b8fa"),
        ("dss_qry17", 0.1, "09129e36d6b16c908b9822ced8112db81c0da23090c40eaec8d15706e577d83c"),
        ("dss_qry20", 0.1, "5d2c2a58730e4d94e12b52f771131aa626f0c3cf1c5f1649d572c7fe58918e5f"),
        ("media_streaming", 0.1,
         "b26dd386e5a233ab406085335bfaa8fe695346015a92a0addea982cd48e3c82e"),
        ("web_frontend", 0.1, "743332d7eed10e88c751b4807eeec980d0ede1db01428f2ba1162b0754eca8ae"),
        ("oltp_oracle", 0.45, "4f51124b380438dea19dfff1c0ad7a4087d5308e3e7b79d1abe2b1d9d0693534"),
    ])
    def test_program_cfg_is_pinned(self, name, scale, digest):
        # Every draw synthesis makes, including what no instruction encodes
        # (biases, loop trip ranges, indirect targets) and blocks no trace
        # visits: each function's layer and entry, then each of its blocks.
        # Recorded when the dynamic fields lived in a second record per
        # branch, joined to its block by PC.
        cfg = synthesize_program(get_profile(name).scaled(scale)).cfg
        h = hashlib.sha256()
        for function in cfg.functions:
            for block in function.basic_blocks:
                h.update(repr((
                    function.layer, function.entry, block.start, block.length,
                    block.kind.value, block.taken_target, block.taken_bias,
                    block.deterministic, block.is_loop, block.trip_range,
                    block.indirect_targets,
                )).encode())
        assert h.hexdigest() == digest

    def test_program_survives_pickling(self, tiny_program):
        # A worker process hands programs back to its parent by pickle (the
        # figure benchmarks build their workloads in a process pool).
        copy = pickle.loads(pickle.dumps(tiny_program))
        assert copy.cfg.functions == tiny_program.cfg.functions
        assert copy.image == tiny_program.image
        first = generate_trace(tiny_program, 5_000, seed=2)
        second = generate_trace(copy, 5_000, seed=2)
        assert list(first.records) == list(second.records)


class TestTraceGeneration:
    def test_trace_reaches_requested_length(self, tiny_program):
        trace = generate_trace(tiny_program, 5_000, seed=1)
        assert trace.instruction_count >= 5_000

    def test_trace_is_deterministic_per_seed(self, tiny_program):
        first = generate_trace(tiny_program, 5_000, seed=9)
        second = generate_trace(tiny_program, 5_000, seed=9)
        assert len(first) == len(second)
        assert all(a == b for a, b in zip(first.records, second.records, strict=True))

    def test_different_seeds_differ(self, tiny_program):
        first = generate_trace(tiny_program, 5_000, seed=1)
        second = generate_trace(tiny_program, 5_000, seed=2)
        assert any(a != b for a, b in zip(first.records, second.records, strict=True))

    def test_records_follow_control_flow(self, tiny_trace):
        for record in list(tiny_trace.records)[:2000]:
            if record.branch_pc is None:
                continue
            assert record.start <= record.branch_pc
            if record.kind is BranchKind.CONDITIONAL and not record.taken:
                assert record.next_pc == record.fallthrough

    def test_taken_branch_fraction_reasonable(self, tiny_trace):
        stats = tiny_trace.statistics()
        assert 0.4 < stats.taken_branch_fraction < 0.95

    def test_statistics_consistency(self, tiny_trace):
        stats = tiny_trace.statistics()
        assert stats.instruction_count == tiny_trace.instruction_count
        assert stats.fetch_region_count == len(tiny_trace)
        assert stats.taken_branch_count <= stats.branch_count
        assert stats.unique_taken_branches <= stats.taken_branch_count

    def test_branch_density_positive(self, tiny_trace):
        densities = tiny_trace.branch_density()
        assert densities["static"] > 0
        assert densities["dynamic"] > 0

    def test_working_set_exceeds_l1i(self, small_trace):
        stats = small_trace.statistics()
        assert stats.unique_blocks > 512  # larger than the 32 KB L1-I

    def test_walker_counts_requests_and_operations(self, tiny_program):
        walker = TraceWalker(tiny_program, seed=4)
        walker.run(5_000)
        assert walker.requests_completed > 0
        assert walker.operations_completed >= walker.requests_completed

    def test_trace_head_and_concatenate(self, tiny_trace):
        head = tiny_trace.head(10)
        assert len(head) == 10

    def test_record_block_listing(self, tiny_trace):
        record = tiny_trace[0]
        blocks = record.blocks()
        assert blocks[0] == block_address(record.start)
        assert blocks[-1] == block_address(record.last_instruction)


def _column_digest(packed) -> str:
    """SHA-256 over the nine packed columns, little-endian, in column order."""
    digest = hashlib.sha256()
    for attr in COLUMN_NAMES:
        column = getattr(packed, attr)
        column = array(column.typecode, column)
        if sys.byteorder != "little":
            column.byteswap()
        digest.update(column.tobytes())
    return digest.hexdigest()


class TestGeneratedTraceContent:
    """Generated traces byte for byte, not only what is derived from them.

    The digests and counters were recorded before the walker became one
    loop over per-walk caches; any change to the walk (an RNG draw moved,
    a memo keyed wrongly, a region batched out of order) moves them.  Each
    case serves several requests, so the request and parameter draws
    between operations are pinned too.
    """

    @pytest.mark.parametrize("name, scale, seed, length, digest, requests, operations", [
        ("web_frontend", 0.05, 5, 60_000,
         "2680265c8a9fe65d07722eca681e6901e00f9cddbe3e4ebcb6a6ea073832738b", 5, 120),
        ("dss_qry2", 0.05, 13, 50_000,
         "ac82125e04fa4d22892d2d07a66728a52f40bc11354fac0aa49b86b172ade921", 3, 48),
        ("oltp_db2", 0.05, 3, 60_000,
         "663990a6c339546b7f223be0a12c8057bc81ab21f1216b87583f83a41ab46580", 3, 72),
        ("media_streaming", 0.05, 2, 40_000,
         "3b2fc93f39221707d3beefefa50385ceb1a7a92db46980ddf87f5192dc7960d5", 2, 48),
    ])
    def test_columns_and_walker_counters_are_pinned(
        self, name, scale, seed, length, digest, requests, operations
    ):
        walker = TraceWalker(synthesize_program(get_profile(name).scaled(scale)), seed=seed)
        packed = walker.run_packed(length)
        assert _column_digest(packed) == digest
        assert walker.requests_completed == requests
        assert walker.operations_completed == operations

"""Tests for the columnar trace representation and its on-disk format."""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.instruction import BLOCK_SIZE_BYTES, BranchKind, block_address
from repro.workloads import TraceWalker, generate_trace
from repro.workloads.packed import (
    KIND_CODES,
    NO_VALUE,
    PackedTrace,
    PackedTraceBuilder,
    kind_code,
    kind_from_code,
    load_packed,
    save_chunks,
)
from repro.workloads.trace import FetchRecord, Trace, TraceStatistics, pack_records

BASE = 0x4000_0000


def _record(start, count=4, kind=BranchKind.CONDITIONAL, taken=True,
            target=None, next_pc=None, branch=True):
    branch_pc = start + (count - 1) * 4 if branch else None
    if next_pc is None:
        next_pc = target if (taken and target is not None) else start + count * 4
    return FetchRecord(
        start=start,
        instruction_count=count,
        branch_pc=branch_pc,
        kind=kind if branch else None,
        taken=taken if branch else False,
        target=target,
        next_pc=next_pc,
    )


def _reference_statistics(records) -> TraceStatistics:
    """The original record-walk statistics algorithm (the view-path oracle)."""
    stats = TraceStatistics()
    blocks, taken_pcs = set(), set()
    for record in records:
        stats.fetch_region_count += 1
        stats.instruction_count += record.instruction_count
        blocks.update(record.blocks())
        if record.branch_pc is None:
            continue
        stats.branch_count += 1
        if record.kind is BranchKind.CONDITIONAL:
            stats.conditional_count += 1
            if record.taken:
                stats.conditional_taken_count += 1
        if record.kind is not None and record.kind.is_call:
            stats.call_count += 1
        if record.kind is BranchKind.RETURN:
            stats.return_count += 1
        if record.kind is not None and record.kind.is_indirect:
            stats.indirect_count += 1
        if record.taken:
            stats.taken_branch_count += 1
            taken_pcs.add(record.branch_pc)
    stats.unique_blocks = len(blocks)
    stats.unique_taken_branches = len(taken_pcs)
    return stats


class TestKindCodes:
    def test_round_trip_every_kind(self):
        for kind in BranchKind:
            assert kind_from_code(kind_code(kind)) is kind

    def test_none_round_trips_through_sentinel(self):
        assert kind_code(None) == NO_VALUE
        assert kind_from_code(NO_VALUE) is None

    def test_codes_are_stable_column_indices(self):
        # On-disk files depend on this ordering; changing it requires a
        # PACKED_TRACE_FORMAT_VERSION bump.
        assert [kind_code(kind) for kind in KIND_CODES] == list(range(len(KIND_CODES)))


class TestPackedBuilder:
    def test_records_round_trip_through_columns(self, tiny_trace):
        packed = pack_records(tiny_trace.records, name="copy")
        assert len(packed) == len(tiny_trace)
        assert all(a == b for a, b in zip(Trace.from_packed(packed), tiny_trace, strict=True))

    def test_chunked_flush_is_equivalent(self, tiny_trace):
        records = list(tiny_trace.records)[:500]
        small = PackedTraceBuilder(name="t", chunk_regions=7)
        big = PackedTraceBuilder(name="t")
        for record in records:
            small.append_record(record)
            big.append_record(record)
        small_packed, big_packed = small.build(), big.build()
        for attr in ("starts", "branch_pcs", "kinds", "takens", "block_counts"):
            assert getattr(small_packed, attr) == getattr(big_packed, attr)

    def test_block_span_columns_match_record_blocks(self, tiny_trace):
        packed = tiny_trace.packed
        for index, record in zip(range(300), tiny_trace.records, strict=False):
            assert packed.region_blocks(index) == record.blocks()
            assert packed.block_firsts[index] == block_address(record.start)

    def test_ragged_columns_rejected(self):
        builder = PackedTraceBuilder()
        builder.append(BASE, 4, BASE + 12, 0, 1, BASE + 64, BASE + 64)
        packed = builder.build()
        columns = [getattr(packed, attr) for attr in
                   ("starts", "instruction_counts", "branch_pcs", "kinds",
                    "takens", "targets", "next_pcs", "block_firsts", "block_counts")]
        columns[0] = columns[0] + columns[0]  # starts twice as long
        with pytest.raises(ValueError, match="ragged"):
            PackedTrace(columns)

    def test_take_chunk_detaches(self):
        builder = PackedTraceBuilder(name="s")
        assert builder.take_chunk() is None
        builder.append(BASE, 4, BASE + 12, 0, 1, NO_VALUE, BASE + 16)
        first = builder.take_chunk()
        assert first is not None and len(first) == 1
        assert builder.take_chunk() is None  # already detached


class TestStatisticsParity:
    """The columnar statistics pass must match the record-walk oracle."""

    def test_generated_trace(self, tiny_trace):
        assert tiny_trace.statistics() == _reference_statistics(tiny_trace.records)

    def test_handcrafted_trace_with_branchless_regions(self):
        records = [
            _record(BASE, count=20, kind=BranchKind.CALL, target=BASE + 0x400),
            _record(BASE + 0x400, count=3, kind=BranchKind.RETURN, next_pc=BASE + 80),
            _record(BASE + 80, count=5, branch=False),
            _record(BASE + 100, count=2, kind=BranchKind.INDIRECT, next_pc=BASE),
            _record(BASE, count=4, taken=False),
        ]
        trace = Trace(records, name="hand")
        assert trace.statistics() == _reference_statistics(records)

    def test_vectorized_statistics_match_the_pure_loop(self, tiny_trace):
        # statistics_tuple may take the numpy path; the pure-array fold is
        # the behavioral reference and the two must agree exactly.
        assert tiny_trace.packed.statistics_tuple() == \
            tiny_trace.packed.statistics_tuple_reference()

    def test_vectorized_statistics_match_on_handcrafted_edge_cases(self):
        records = [
            _record(BASE, count=20, kind=BranchKind.CALL, target=BASE + 0x400),
            _record(BASE + 0x400, count=3, kind=BranchKind.RETURN, next_pc=BASE + 80),
            _record(BASE + 80, count=5, branch=False),
            _record(BASE + 100, count=2, kind=BranchKind.INDIRECT, next_pc=BASE),
            _record(BASE, count=4, taken=False),
            _record(BASE + 0x800, count=40, kind=BranchKind.INDIRECT_CALL,
                    next_pc=BASE),
        ]
        packed = Trace(records, name="edges").packed
        assert packed.statistics_tuple() == packed.statistics_tuple_reference()

    def test_vectorized_branch_density_matches_the_pure_loop(self, tiny_trace):
        vectorized = tiny_trace.branch_density()
        reference = tiny_trace.branch_density_reference()
        assert vectorized["static"] == pytest.approx(reference["static"])
        assert vectorized["dynamic"] == pytest.approx(reference["dynamic"])

    def test_vectorized_branch_density_on_branchless_trace(self):
        trace = Trace([_record(BASE, branch=False) for _ in range(5)], name="nb")
        assert trace.branch_density() == {"static": 0.0, "dynamic": 0.0}
        assert trace.branch_density_reference() == {"static": 0.0, "dynamic": 0.0}

    def test_branch_density_matches_record_walk(self, tiny_trace):
        # Reference implementation over the record view.
        from repro.isa.instruction import block_address as baddr

        static_branches, dynamic_counts = {}, []
        current_block, current_branches = None, set()
        for record in tiny_trace.records:
            if record.branch_pc is None:
                continue
            branch_block = baddr(record.branch_pc)
            static_branches.setdefault(branch_block, set()).add(record.branch_pc)
            if branch_block != current_block:
                if current_block is not None:
                    dynamic_counts.append(len(current_branches))
                current_block = branch_block
                current_branches = set()
            if record.taken:
                current_branches.add(record.branch_pc)
        if current_block is not None:
            dynamic_counts.append(len(current_branches))
        expected_static = sum(len(p) for p in static_branches.values()) / len(static_branches)
        expected_dynamic = sum(dynamic_counts) / len(dynamic_counts)
        densities = tiny_trace.branch_density()
        assert densities["static"] == pytest.approx(expected_static)
        assert densities["dynamic"] == pytest.approx(expected_dynamic)


class TestBlockStream:
    def test_suppresses_duplicates_across_region_boundaries(self):
        # Region 1 ends in block B; region 2 starts in the same block B:
        # the L1-I sees B once, not twice.
        block = block_address(BASE)
        records = [
            _record(BASE, count=4, taken=False),            # stays in block
            _record(BASE + 16, count=4, taken=False),       # same block again
            _record(BASE + 32, count=24,                    # spans into next blocks
                    kind=BranchKind.UNCONDITIONAL, target=BASE),
            _record(BASE, count=4, taken=False),            # back to the first
        ]
        trace = Trace(records, name="dup")
        stream = list(trace.block_stream())
        assert stream == [
            block, block + BLOCK_SIZE_BYTES, block,
        ]
        # No consecutive duplicates, by construction.
        assert all(a != b for a, b in zip(stream, stream[1:], strict=False))

    def test_packed_and_view_streams_agree(self, tiny_trace):
        view_stream = []
        previous = None
        for record in tiny_trace.records:
            for block in record.blocks():
                if block != previous:
                    view_stream.append(block)
                    previous = block
        assert list(tiny_trace.block_stream()) == view_stream


class TestHeadAndConcatenate:
    def test_head_statistics_consistent(self, tiny_trace):
        head = tiny_trace.head(257)
        assert len(head) == 257
        stats = head.statistics()
        assert stats == _reference_statistics(head.records)
        assert stats.instruction_count == head.instruction_count
        assert stats.fetch_region_count == len(head)

    def test_concatenate_statistics_consistent(self, tiny_trace):
        a, b = tiny_trace.head(100), tiny_trace.head(40)
        combined = Trace.concatenate([a, b], name="ab")
        assert len(combined) == 140
        stats = combined.statistics()
        assert stats == _reference_statistics(list(a.records) + list(b.records))
        # Additive counters add; unique counters must not double-count.
        assert stats.instruction_count == a.instruction_count + b.instruction_count
        assert stats.unique_blocks == a.statistics().unique_blocks  # b ⊆ a
        assert combined[99] == a[99] and combined[100] == b[0]

    def test_view_and_packed_paths_agree(self, tiny_trace):
        # The same head/concatenate shapes built through the record view
        # (packing FetchRecords) and through packed slicing must agree.
        via_view = Trace(list(tiny_trace.records)[:64], name="x")
        via_packed = tiny_trace.head(64)
        assert via_view.statistics() == via_packed.statistics()
        assert all(a == b for a, b in zip(via_view, via_packed, strict=True))


class TestRecordView:
    def test_indexing_negative_and_slices(self, tiny_trace):
        records = tiny_trace.records
        assert records[-1] == records[len(records) - 1]
        assert records[5:8] == [records[5], records[6], records[7]]
        with pytest.raises(IndexError):
            records[len(records)]

    def test_iteration_matches_indexing(self, tiny_trace):
        from itertools import islice

        for index, record in enumerate(islice(tiny_trace.records, 200)):
            assert record == tiny_trace.records[index]


class TestSaveLoad:
    def test_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        tiny_trace.packed.save(path)
        reloaded = load_packed(path)
        assert reloaded.name == tiny_trace.name
        assert len(reloaded) == len(tiny_trace)
        assert Trace.from_packed(reloaded).statistics() == tiny_trace.statistics()
        assert all(a == b for a, b in zip(Trace.from_packed(reloaded), tiny_trace, strict=True))

    def test_chunked_write_equals_single_chunk(self, tiny_trace, tmp_path):
        one = tmp_path / "one.trace"
        many = tmp_path / "many.trace"
        tiny_trace.packed.save(one)
        tiny_trace.packed.save(many, chunk_regions=123)
        assert load_packed(one).starts == load_packed(many).starts

    def test_streamed_generation_matches_in_memory(self, tiny_program, tmp_path):
        path = tmp_path / "s.trace"
        walker = TraceWalker(tiny_program, seed=11)
        save_chunks(path, "stream", walker.run_chunks(8_000, chunk_regions=300))
        streamed = Trace.from_packed(load_packed(path))
        in_memory = generate_trace(tiny_program, 8_000, seed=11)
        assert len(streamed) == len(in_memory)
        assert all(a == b for a, b in zip(streamed, in_memory, strict=True))

    def test_truncated_file_rejected(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        tiny_trace.packed.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_packed(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a packed trace"):
            load_packed(path)


class TestMmapLoad:
    """``load_packed(path, mmap=True)``: zero-copy memoryview columns."""

    def _saved(self, tiny_trace, tmp_path, **save_kwargs):
        path = tmp_path / "t.trace"
        tiny_trace.packed.save(path, **save_kwargs)
        return path

    def test_mapped_columns_equal_heap_columns(self, tiny_trace, tmp_path):
        path = self._saved(tiny_trace, tmp_path)
        heap = load_packed(path)
        mapped = load_packed(path, mmap=True)
        assert mapped.mapped and not heap.mapped
        assert isinstance(mapped.starts, memoryview)
        for attr in ("starts", "instruction_counts", "branch_pcs", "kinds",
                     "takens", "targets", "next_pcs", "block_firsts",
                     "block_counts"):
            assert list(getattr(mapped, attr)) == list(getattr(heap, attr)), attr
        assert mapped.name == heap.name
        assert mapped.instruction_count == heap.instruction_count
        assert Trace.from_packed(mapped).statistics() == \
            Trace.from_packed(heap).statistics()

    def test_multi_chunk_artifact_falls_back_to_heap(self, tiny_trace, tmp_path):
        path = self._saved(tiny_trace, tmp_path, chunk_regions=123)
        mapped = load_packed(path, mmap=True)
        assert not mapped.mapped  # columns are split across chunks
        assert list(mapped.starts) == list(tiny_trace.packed.starts)

    def test_slices_of_mapped_traces_stay_views(self, tiny_trace, tmp_path):
        path = self._saved(tiny_trace, tmp_path)
        mapped = load_packed(path, mmap=True)
        window = mapped.slice(10, 50)
        assert window.mapped and len(window) == 40
        assert list(window.starts) == list(tiny_trace.packed.starts[10:50])

    def test_pickling_a_mapped_trace_materializes_heap_arrays(
        self, tiny_trace, tmp_path
    ):
        import pickle

        path = self._saved(tiny_trace, tmp_path)
        mapped = load_packed(path, mmap=True)
        clone = pickle.loads(pickle.dumps(mapped))
        assert not clone.mapped  # memoryviews cannot cross process boundaries
        assert clone.name == mapped.name
        assert list(clone.starts) == list(mapped.starts)
        assert list(clone.block_counts) == list(mapped.block_counts)

    def test_mapped_loader_rejects_corruption_like_the_heap_loader(
        self, tiny_trace, tmp_path
    ):
        path = self._saved(tiny_trace, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_packed(path, mmap=True)
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(ValueError, match="not a packed trace"):
            load_packed(path, mmap=True)

    def test_torn_column_length_is_a_value_error_not_a_type_error(
        self, tiny_trace, tmp_path
    ):
        # A column byte length that is not a multiple of the element size is
        # corruption; the mapped loader must raise ValueError (so a trace
        # store counts a clean miss), never let memoryview.cast's TypeError
        # escape.
        import struct

        path = self._saved(tiny_trace, tmp_path)
        data = bytearray(path.read_bytes())
        # Layout: header(8) + u16 name length + name + chunk marker(1) +
        # u64 region count, then the first column's u64 byte length.
        (name_length,) = struct.unpack_from("<H", data, 8)
        offset = 8 + 2 + name_length + 1 + 8
        (byte_length,) = struct.unpack_from("<Q", data, offset)
        struct.pack_into("<Q", data, offset, byte_length - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_packed(path, mmap=True)
        with pytest.raises(ValueError):
            load_packed(path)  # the heap reader agrees on the error type

    def test_from_buffers_validates_like_the_constructor(self, tiny_trace):
        packed = tiny_trace.packed
        columns = [getattr(packed, attr) for attr in
                   ("starts", "instruction_counts", "branch_pcs", "kinds",
                    "takens", "targets", "next_pcs", "block_firsts",
                    "block_counts")]
        adopted = PackedTrace.from_buffers(columns, name="adopted")
        assert len(adopted) == len(packed)
        with pytest.raises(ValueError, match="columns"):
            PackedTrace.from_buffers(columns[:-1], name="short")


class TestFrontendDefaultsToPacked:
    def test_run_uses_packed_and_matches_view(self, tiny_program, tiny_trace):
        from repro.backends.reference import ReferenceBackend
        from repro.core.designs import design_from_spec, resolve_design

        spec = resolve_design("baseline")
        fast_sim, _ = design_from_spec(spec, tiny_program)
        slow_sim, _ = design_from_spec(spec, tiny_program)
        fast = fast_sim.run(tiny_trace)  # the scalar loop, columnar
        slow = ReferenceBackend().run(  # the oracle, record view
            slow_sim, tiny_trace, slow_sim.config.warmup_fraction
        )
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow)

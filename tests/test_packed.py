"""Tests for the columnar trace representation and its on-disk format."""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import pytest

from repro.isa.instruction import BranchKind, block_address
from repro.workloads import packed as packed_module
from repro.workloads.packed import (
    COLUMN_NAMES,
    KIND_CODES,
    NO_VALUE,
    PackedTrace,
    PackedTraceBuilder,
    kind_code,
    kind_from_code,
    load_packed,
    region_row,
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


def _reference_branch_density(records):
    """Table 2's density walk over the record view (the columnar oracle)."""
    static_branches, dynamic_counts = {}, []
    current_block, current_branches = None, set()
    for record in records:
        if record.branch_pc is None:
            continue
        branch_block = block_address(record.branch_pc)
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
    if not static_branches:
        return {"static": 0.0, "dynamic": 0.0}
    return {
        "static": sum(len(p) for p in static_branches.values()) / len(static_branches),
        "dynamic": sum(dynamic_counts) / len(dynamic_counts),
    }


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

    def test_chunked_flush_is_equivalent(self, tiny_trace, monkeypatch):
        records = list(tiny_trace.records)[:500]
        big = PackedTraceBuilder(name="t")
        for record in records:
            big.append_record(record)
        monkeypatch.setattr(packed_module, "_FLUSH_REGIONS", 7)
        small = PackedTraceBuilder(name="t")
        for record in records:
            small.append_record(record)
        small_packed, big_packed = small.build(), big.build()
        for attr in ("starts", "branch_pcs", "kinds", "takens", "block_counts"):
            assert getattr(small_packed, attr) == getattr(big_packed, attr)

    def test_batches_respect_the_flush_bound(self, tiny_trace, monkeypatch):
        # The walker hands whole operations over in one call; a batch longer
        # than the bound is split so the buffers never outgrow it.
        source = tiny_trace.packed
        count = 500
        rows = [
            region_row(
                source.starts[i], source.instruction_counts[i],
                source.branch_pcs[i], source.kinds[i], source.targets[i],
            )
            for i in range(count)
        ]
        takens, next_pcs = list(source.takens[:count]), list(source.next_pcs[:count])
        monkeypatch.setattr(packed_module, "_FLUSH_REGIONS", 7)
        builder = PackedTraceBuilder(name="t")
        builder.extend(rows[:3], takens[:3], next_pcs[:3])
        builder.extend(rows[3:], takens[3:], next_pcs[3:])
        assert builder._buffered < 7
        built = builder.build()
        for attr in COLUMN_NAMES:
            assert getattr(built, attr) == getattr(source, attr)[:count]

    def test_block_span_columns_match_record_blocks(self, tiny_trace):
        packed = tiny_trace.packed
        for index, record in zip(range(300), tiny_trace.records, strict=False):
            assert tuple(packed.region_blocks(index)) == record.blocks()
            assert packed.block_firsts[index] == block_address(record.start)

    def test_ragged_columns_rejected(self):
        builder = PackedTraceBuilder()
        builder.append(BASE, 4, BASE + 12, 0, 1, BASE + 64, BASE + 64)
        packed = builder.build()
        columns = [getattr(packed, attr) for attr in COLUMN_NAMES]
        columns[0] = columns[0] + columns[0]  # starts twice as long
        with pytest.raises(ValueError, match="ragged"):
            PackedTrace(columns)


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
            _record(BASE + 0x800, count=40, kind=BranchKind.INDIRECT_CALL,
                    next_pc=BASE),
        ]
        trace = Trace(records, name="hand")
        assert trace.statistics() == _reference_statistics(records)

    def test_branch_density_matches_record_walk(self, tiny_trace):
        branchless = Trace([_record(BASE, branch=False) for _ in range(5)], name="nb")
        for trace in (tiny_trace, branchless):
            assert trace.branch_density() == _reference_branch_density(trace.records)
        assert branchless.branch_density() == {"static": 0.0, "dynamic": 0.0}


class TestHeadAndConcatenate:
    def test_head_statistics_consistent(self, tiny_trace):
        head = tiny_trace.head(257)
        assert len(head) == 257
        stats = head.statistics()
        assert stats == _reference_statistics(head.records)
        assert stats.instruction_count == head.instruction_count
        assert stats.fetch_region_count == len(head)

    def test_view_and_packed_paths_agree(self, tiny_trace):
        # The same head built through the record view (packing
        # FetchRecords) and through packed slicing must agree.
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


#: Layouts :func:`load_packed` refuses, with the error text naming each.
OTHER_LAYOUTS = {"second-block": "second column block", "byte-order": "other byte order"}


def _other_layout(packed, tmp_path, layout):
    """The artifact bytes of ``packed`` in one of :data:`OTHER_LAYOUTS`:
    split across two column blocks (what multi-chunk writers produced) or
    flagged with the other byte order."""
    def saved(trace, name):
        path = tmp_path / name
        trace.save(path)
        return path.read_bytes()

    whole = saved(packed, "whole.trace")
    if layout == "byte-order":
        native = 0 if sys.byteorder == "little" else 1
        return whole[:6] + bytes([1 - native]) + whole[7:]  # header byte 6
    prefix = 8 + 2 + len(packed.name.encode("utf-8"))  # header + name
    trailer = 1 + 16  # end marker + (regions, instructions)
    half = len(packed) // 2
    first = saved(packed.slice(0, half), "first.trace")[prefix:-trailer]
    second = saved(packed.slice(half), "second.trace")[prefix:-trailer]
    return whole[:prefix] + first + second + whole[-trailer:]


class TestSaveLoad:
    def test_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        tiny_trace.packed.save(path)
        reloaded = load_packed(path)
        assert reloaded.name == tiny_trace.name
        assert len(reloaded) == len(tiny_trace)
        assert Trace.from_packed(reloaded).statistics() == tiny_trace.statistics()
        assert all(a == b for a, b in zip(Trace.from_packed(reloaded), tiny_trace, strict=True))

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

    @pytest.mark.parametrize("layout", sorted(OTHER_LAYOUTS))
    def test_another_layout_is_rejected_naming_the_file(
        self, tiny_trace, tmp_path, layout
    ):
        path = tmp_path / "other.trace"
        path.write_bytes(_other_layout(tiny_trace.packed, tmp_path, layout))
        with pytest.raises(ValueError, match=OTHER_LAYOUTS[layout]) as error:
            load_packed(path)
        assert str(path) in str(error.value)

    def test_empty_file_is_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="cannot map") as error:
            load_packed(path)
        assert str(path) in str(error.value)

    @pytest.mark.parametrize("layout", sorted(OTHER_LAYOUTS))
    def test_store_serves_another_layout_as_a_quarantined_miss(
        self, tiny_program, tiny_trace, tmp_path, layout
    ):
        from repro.sweep import CorruptArtifactWarning, TraceStore

        store = TraceStore(tmp_path / "store")
        profile = tiny_program.profile
        path = store.put(profile, 30_000, 3, tiny_trace)
        data = _other_layout(tiny_trace.packed, tmp_path, layout)
        path.write_bytes(data)
        # A matching sidecar: the reader, not the checksum, must refuse it.
        path.with_name(path.name + ".sum").write_text(
            hashlib.sha256(data).hexdigest() + "\n", encoding="utf-8"
        )
        with pytest.warns(CorruptArtifactWarning, match=path.name):
            assert store.load(profile, 30_000, 3) is None
        assert (store.hits, store.misses, store.quarantined) == (0, 1, 1)
        assert not path.exists()


class TestMmapLoad:
    """``load_packed(path)`` maps the artifact: zero-copy memoryview columns."""

    def _saved(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        tiny_trace.packed.save(path)
        return path

    def test_mapped_columns_equal_heap_columns(self, tiny_trace, tmp_path):
        heap = tiny_trace.packed
        mapped = load_packed(self._saved(tiny_trace, tmp_path))
        assert mapped.mapped and not heap.mapped
        assert isinstance(mapped.starts, memoryview)
        for attr in COLUMN_NAMES:
            assert list(getattr(mapped, attr)) == list(getattr(heap, attr)), attr
        assert mapped.name == heap.name
        assert mapped.instruction_count == heap.instruction_count
        assert Trace.from_packed(mapped).statistics() == \
            Trace.from_packed(heap).statistics()

    def test_saving_a_mapped_trace_rewrites_the_same_bytes(
        self, tiny_trace, tmp_path
    ):
        path = self._saved(tiny_trace, tmp_path)
        again = tmp_path / "again.trace"
        load_packed(path).save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_slices_of_mapped_traces_stay_views(self, tiny_trace, tmp_path):
        path = self._saved(tiny_trace, tmp_path)
        mapped = load_packed(path)
        window = mapped.slice(10, 50)
        assert window.mapped and len(window) == 40
        assert list(window.starts) == list(tiny_trace.packed.starts[10:50])

    def test_pickling_a_mapped_trace_materializes_heap_arrays(
        self, tiny_trace, tmp_path
    ):
        import pickle

        path = self._saved(tiny_trace, tmp_path)
        mapped = load_packed(path)
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
            load_packed(path)
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(ValueError, match="not a packed trace"):
            load_packed(path)

    def test_torn_column_length_is_a_value_error_not_a_type_error(
        self, tiny_trace, tmp_path
    ):
        # A column byte length that is not a multiple of the element size is
        # corruption; the loader must raise ValueError (so a trace store
        # counts a clean miss), never let memoryview.cast's TypeError escape.
        import struct

        path = self._saved(tiny_trace, tmp_path)
        data = bytearray(path.read_bytes())
        # Layout: header(8) + u16 name length + name + block marker(1) +
        # u64 region count, then the first column's u64 byte length.
        (name_length,) = struct.unpack_from("<H", data, 8)
        offset = 8 + 2 + name_length + 1 + 8
        (byte_length,) = struct.unpack_from("<Q", data, offset)
        struct.pack_into("<Q", data, offset, byte_length - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt packed trace column"):
            load_packed(path)

    def test_from_buffers_validates_like_the_constructor(self, tiny_trace):
        packed = tiny_trace.packed
        columns = [getattr(packed, attr) for attr in COLUMN_NAMES]
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

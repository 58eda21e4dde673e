"""Columnar (structure-of-arrays) fetch-region traces.

A trace is a long, homogeneous stream of fetch regions, and every consumer —
the frontend timing loop, the prefetchers, the statistics — walks it start to
finish.  Materializing one frozen dataclass per region makes that walk pay
Python object construction and attribute-protocol overhead per region, and
makes a trace cost hundreds of bytes of heap per record.  :class:`PackedTrace`
stores the same information as parallel ``array`` columns (~50 bytes per
region), which the hot loops index directly; :class:`repro.workloads.trace.Trace`
keeps the record-level API as thin lazy views on top.

Columns (one slot per fetch region):

* ``starts`` — address of the region's first instruction,
* ``instruction_counts`` — instructions executed in the region,
* ``branch_pcs`` — terminating branch address (``-1`` = no branch),
* ``kinds`` — :data:`KIND_CODES` index of the branch kind (``-1`` = none),
* ``takens`` — dynamic outcome of the terminating branch (0/1),
* ``targets`` — statically-encoded target (``-1`` = none/dynamic),
* ``next_pcs`` — address of the next region actually executed,
* ``block_firsts`` / ``block_counts`` — precomputed span of 64 B instruction
  blocks the region touches, so the L1-I loops never recompute it.

Traces are built through :class:`PackedTraceBuilder`, which buffers appends
in plain lists and flushes them into the arrays in chunks, so generation
never holds more than one chunk of Python objects.  :meth:`PackedTrace.save`
and :meth:`PackedTrace.load` give traces a compact binary on-disk form (the
:class:`repro.sweep.TraceStore` artifact format); the file layout is itself
chunked, so arbitrarily long traces can be streamed to disk with
:func:`save_chunks` without ever being resident in memory at once.

Columns may be ``array`` objects (the heap form) or read-only
``memoryview``s over an ``mmap`` of the on-disk artifact —
``load_packed(path, mmap=True)`` maps a single-chunk, native-byte-order
file without copying a byte, so every process sharing a trace store reads
the same page-cache pages instead of each holding a private heap copy.
Mapped traces behave identically (the parity suite pins it); pickling one
(e.g. handing it to a worker process) materializes heap arrays.

``numpy`` is optional: when present it accelerates the
:attr:`PackedTrace.instruction_count` and :meth:`PackedTrace.statistics_tuple`
reductions; the pure-``array`` walks (:meth:`PackedTrace.fold_statistics`)
remain the behavioral reference, and the test suite asserts the two agree.
"""

from __future__ import annotations

import mmap as _mmap_module
import struct
import sys
from array import array
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.isa.instruction import (
    BLOCK_SIZE_BYTES,
    INSTRUCTION_SIZE_BYTES,
    BranchKind,
    block_address,
)

if TYPE_CHECKING:  # import cycle guard: trace.py imports this module
    from repro.branch.columns import BranchColumns
    from repro.workloads.trace import FetchRecord

# Optional-numpy dance lives in one place; ``_np`` is None when absent and
# the array path below is the reference.
from repro._np import np as _np

__all__ = [
    "KIND_CODES",
    "PACKED_TRACE_FORMAT_VERSION",
    "PackedTrace",
    "PackedTraceBuilder",
    "kind_code",
    "kind_from_code",
    "load_packed",
    "save_chunks",
]

#: Branch-kind encoding used by the ``kinds`` column; index = stored code.
KIND_CODES: Tuple[BranchKind, ...] = (
    BranchKind.CONDITIONAL,
    BranchKind.UNCONDITIONAL,
    BranchKind.CALL,
    BranchKind.INDIRECT,
    BranchKind.INDIRECT_CALL,
    BranchKind.RETURN,
)

_KIND_TO_CODE = {kind: code for code, kind in enumerate(KIND_CODES)}

#: Sentinel for "no value" in the address-valued columns and ``kinds``.
NO_VALUE = -1

#: Bumped whenever the on-disk column layout changes meaning; readers reject
#: files written under another version instead of misreading them.
PACKED_TRACE_FORMAT_VERSION = 1

#: (column attribute, array typecode).  ``q`` columns hold addresses (or the
#: ``-1`` sentinel), ``i`` columns hold small counts, ``b`` columns hold the
#: kind code / taken flag.  The order is the on-disk column order.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("starts", "q"),
    ("instruction_counts", "i"),
    ("branch_pcs", "q"),
    ("kinds", "b"),
    ("takens", "b"),
    ("targets", "q"),
    ("next_pcs", "q"),
    ("block_firsts", "q"),
    ("block_counts", "i"),
)

_MAGIC = b"RPKT"
_HEADER = struct.Struct("<4sHBB")  # magic, format version, byteorder, reserved
_CHUNK_MARKER = struct.Struct("<B")  # 1 = chunk follows, 0 = trailer follows
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_TRAILER = struct.Struct("<QQ")  # total regions, total instructions


def kind_code(kind: Optional[BranchKind]) -> int:
    """Column encoding of a branch kind (``-1`` for no branch)."""
    if kind is None:
        return NO_VALUE
    return _KIND_TO_CODE[kind]


def kind_from_code(code: int) -> Optional[BranchKind]:
    """Inverse of :func:`kind_code`."""
    if code == NO_VALUE:
        return None
    return KIND_CODES[code]


def _empty_columns() -> List[array]:
    return [array(typecode) for _, typecode in _COLUMNS]


#: A column is either a heap ``array`` or a (cast) read-only ``memoryview``
#: over an mmap of the artifact file; both index, slice, iterate and
#: ``tobytes()`` identically, which is all the consumers use.
Column = Union[array, memoryview]


def _column_typecode(column: Column) -> str:
    """Element type of a column, whichever backing it has."""
    typecode = getattr(column, "typecode", None)
    if typecode is not None:
        return typecode
    return column.format


class PackedTrace:
    """Structure-of-arrays representation of a fetch-region trace.

    Instances are built by :class:`PackedTraceBuilder` (or :func:`load_packed`)
    and are conceptually immutable afterwards; consumers index the column
    attributes directly.  Columns are ``array``s, or ``memoryview``s over an
    mmap of the on-disk artifact (see :meth:`from_buffers` /
    ``load_packed(path, mmap=True)``); :attr:`mapped` tells the two apart.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS) + (
        "name",
        "_instruction_count",
        "_branch_columns",
    )

    def __init__(self, columns: Iterable[Column], name: str = "trace") -> None:
        columns = list(columns)
        if len(columns) != len(_COLUMNS):
            raise ValueError(
                f"expected {len(_COLUMNS)} columns, got {len(columns)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        for (attr, typecode), column in zip(_COLUMNS, columns, strict=True):
            if _column_typecode(column) != typecode:
                raise ValueError(
                    f"column {attr!r} must have typecode {typecode!r}, "
                    f"got {_column_typecode(column)!r}"
                )
            setattr(self, attr, column)
        self.name = name
        self._instruction_count: Optional[int] = None
        #: Memo of :func:`repro.branch.columns.trace_columns` (never pickled).
        self._branch_columns: Optional["BranchColumns"] = None

    @classmethod
    def from_buffers(
        cls, buffers: Sequence[Column], name: str = "trace"
    ) -> "PackedTrace":
        """Wrap existing column buffers (typically mmap-backed memoryviews).

        The buffers are adopted as-is — no copy — so the caller's backing
        storage (an ``mmap``, a shared-memory segment) serves every read.
        The memoryviews keep their exporter alive, so the mapping cannot be
        reclaimed while any view (or any :meth:`slice` of one) is reachable.
        """
        return cls(buffers, name=name)

    @property
    def mapped(self) -> bool:
        """True when the columns are memoryviews over an mmap, not arrays."""
        return isinstance(self.starts, memoryview)

    def __reduce__(
        self,
    ) -> Tuple[
        Callable[[str, Tuple[bytes, ...]], "PackedTrace"],
        Tuple[str, Tuple[bytes, ...]],
    ]:
        # Pickling (e.g. shipping a trace to a worker process) materializes
        # heap arrays: a memoryview cannot cross a process boundary, and the
        # receiving side re-maps from the artifact path when it wants
        # zero-copy (the sweep scheduler hands workers paths, not traces).
        raw = tuple(
            getattr(self, attr).tobytes() for attr, _ in _COLUMNS
        )
        return (_unpickle_packed, (self.name, raw))

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def instruction_count(self) -> int:
        if self._instruction_count is None:
            if _np is not None:
                self._instruction_count = int(
                    _np.frombuffer(self.instruction_counts, dtype=_np.int32).sum()
                ) if len(self.instruction_counts) else 0
            else:
                self._instruction_count = sum(self.instruction_counts)
        return self._instruction_count

    def region_blocks(self, index: int) -> Tuple[int, ...]:
        """Block addresses touched by region ``index``, in fetch order."""
        first = self.block_firsts[index]
        count = self.block_counts[index]
        return tuple(range(first, first + count * BLOCK_SIZE_BYTES, BLOCK_SIZE_BYTES))

    def slice(self, start: int, stop: Optional[int] = None) -> "PackedTrace":
        """A new packed trace over ``[start:stop]`` (list-slice semantics)."""
        return PackedTrace(
            (getattr(self, attr)[start:stop] for attr, _ in _COLUMNS),
            name=self.name,
        )

    @classmethod
    def concatenate(
        cls, traces: Iterable["PackedTrace"], name: str = "concat"
    ) -> "PackedTrace":
        columns = _empty_columns()
        for trace in traces:
            for column, (attr, _) in zip(columns, _COLUMNS, strict=True):
                column.extend(getattr(trace, attr))
        return cls(columns, name=name)

    # ------------------------------------------------------------------ #
    # Columnar walks
    # ------------------------------------------------------------------ #

    def iter_block_spans(self) -> Iterator[Tuple[int, int]]:
        """(first block address, block count) per region, in trace order."""
        return zip(self.block_firsts, self.block_counts, strict=True)

    def iter_blocks(self) -> Iterator[int]:
        """Every block address touched, region by region, in fetch order
        (duplicates included — the L1-I dedup lives in ``Trace.block_stream``).
        """
        block_size = BLOCK_SIZE_BYTES
        for first, count in zip(self.block_firsts, self.block_counts, strict=True):
            if count == 1:
                yield first
            else:
                yield from range(first, first + count * block_size, block_size)

    def fold_statistics(
        self, counters: List[int], blocks: Set[int], taken_pcs: Set[int]
    ) -> None:
        """Fold this trace's regions into running statistics accumulators.

        ``counters`` is a mutable 9-slot list of the additive counts
        ``[instructions, regions, branches, taken, conditionals,
        conditional_taken, calls, returns, indirects]``; the unique block
        addresses and taken branch PCs accumulate in the two sets.  Chunked
        consumers (streamed generation) fold each chunk as it is produced,
        so statistics never require the whole trace in memory.
        """
        blocks.update(self.iter_blocks())
        counters[0] += self.instruction_count
        counters[1] += len(self)
        cond = _KIND_TO_CODE[BranchKind.CONDITIONAL]
        ret = _KIND_TO_CODE[BranchKind.RETURN]
        call_codes = (
            _KIND_TO_CODE[BranchKind.CALL],
            _KIND_TO_CODE[BranchKind.INDIRECT_CALL],
        )
        indirect_codes = (
            _KIND_TO_CODE[BranchKind.INDIRECT],
            _KIND_TO_CODE[BranchKind.INDIRECT_CALL],
            _KIND_TO_CODE[BranchKind.RETURN],
        )
        for branch_pc, code, taken in zip(self.branch_pcs, self.kinds, self.takens, strict=True):
            if branch_pc == NO_VALUE:
                continue
            counters[2] += 1
            if code == cond:
                counters[4] += 1
                if taken:
                    counters[5] += 1
            if code in call_codes:
                counters[6] += 1
            if code == ret:
                counters[7] += 1
            if code in indirect_codes:
                counters[8] += 1
            if taken:
                counters[3] += 1
                taken_pcs.add(branch_pc)

    def statistics_tuple(self) -> Tuple[int, ...]:
        """Aggregate counters in one columnar pass.

        Returns the raw counter tuple ``(instructions, regions, branches,
        taken, conditionals, conditional_taken, calls, returns, indirects,
        unique_blocks, unique_taken_branches)``;
        :meth:`repro.workloads.trace.Trace.statistics` wraps it in a
        :class:`~repro.workloads.trace.TraceStatistics`.

        With numpy available the pass is vectorized;
        :meth:`statistics_tuple_reference` keeps the pure-``array`` loop as
        the behavioral reference, and the test suite asserts the two agree.
        """
        if _np is not None and len(self):
            return self._statistics_tuple_numpy()
        return self.statistics_tuple_reference()

    def statistics_tuple_reference(self) -> Tuple[int, ...]:
        """The pure-``array`` statistics pass (the vectorized path's oracle)."""
        counters = [0] * 9
        blocks: Set[int] = set()
        taken_pcs: Set[int] = set()
        self.fold_statistics(counters, blocks, taken_pcs)
        return tuple(counters) + (len(blocks), len(taken_pcs))

    def _statistics_tuple_numpy(self) -> Tuple[int, ...]:
        np = _np
        branch_pcs = np.frombuffer(self.branch_pcs, dtype=np.int64)
        kinds = np.frombuffer(self.kinds, dtype=np.int8)
        takens = np.frombuffer(self.takens, dtype=np.int8) != 0
        has_branch = branch_pcs != NO_VALUE
        taken_mask = has_branch & takens

        conditional_mask = has_branch & (
            kinds == _KIND_TO_CODE[BranchKind.CONDITIONAL]
        )
        call_mask = has_branch & (
            (kinds == _KIND_TO_CODE[BranchKind.CALL])
            | (kinds == _KIND_TO_CODE[BranchKind.INDIRECT_CALL])
        )
        indirect_mask = has_branch & (
            (kinds == _KIND_TO_CODE[BranchKind.INDIRECT])
            | (kinds == _KIND_TO_CODE[BranchKind.INDIRECT_CALL])
            | (kinds == _KIND_TO_CODE[BranchKind.RETURN])
        )
        return_mask = has_branch & (kinds == _KIND_TO_CODE[BranchKind.RETURN])

        # Every region touches its first block; a region spanning k blocks
        # additionally touches first + 1..k-1 strides.  Expanding stride by
        # stride keeps the working set at one address array per span length
        # (spans are tiny — a region rarely crosses more than a few blocks).
        firsts = np.frombuffer(self.block_firsts, dtype=np.int64)
        counts = np.frombuffer(self.block_counts, dtype=np.int32)
        parts = [firsts]
        for stride in range(1, int(counts.max())):
            parts.append(firsts[counts > stride] + stride * BLOCK_SIZE_BYTES)
        unique_blocks = int(np.unique(np.concatenate(parts)).size)

        return (
            self.instruction_count,
            len(self),
            int(has_branch.sum()),
            int(taken_mask.sum()),
            int(conditional_mask.sum()),
            int((conditional_mask & takens).sum()),
            int(call_mask.sum()),
            int(return_mask.sum()),
            int(indirect_mask.sum()),
            unique_blocks,
            int(np.unique(branch_pcs[taken_mask]).size),
        )

    # ------------------------------------------------------------------ #
    # On-disk form
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path], chunk_regions: int = 1 << 18) -> None:
        """Write the trace to ``path`` in the chunked binary format."""
        save_chunks(path, self.name, self._chunks(chunk_regions))

    def _chunks(self, chunk_regions: int) -> Iterator["PackedTrace"]:
        if len(self) <= chunk_regions:
            yield self
            return
        for start in range(0, len(self), chunk_regions):
            yield self.slice(start, start + chunk_regions)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PackedTrace":
        return load_packed(path)


def _write_chunk(handle: IO[bytes], chunk: PackedTrace) -> Tuple[int, int]:
    handle.write(_CHUNK_MARKER.pack(1))
    handle.write(_U64.pack(len(chunk)))
    for attr, _ in _COLUMNS:
        column: array[int] = getattr(chunk, attr)
        raw = column.tobytes()
        handle.write(_U64.pack(len(raw)))
        handle.write(raw)
    return len(chunk), chunk.instruction_count


def save_chunks(
    path: Union[str, Path], name: str, chunks: Iterable[PackedTrace]
) -> None:
    """Stream packed chunks to ``path``; totals go in the trailer.

    This is the larger-than-memory write path: each chunk is written and
    released before the next is produced (``chunks`` may be a generator
    straight off a :class:`~repro.workloads.generator.TraceWalker`).
    """
    byteorder = 0 if sys.byteorder == "little" else 1
    encoded_name = name.encode("utf-8")
    regions = 0
    instructions = 0
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, PACKED_TRACE_FORMAT_VERSION, byteorder, 0))
        handle.write(_U16.pack(len(encoded_name)))
        handle.write(encoded_name)
        for chunk in chunks:
            chunk_regions, chunk_instructions = _write_chunk(handle, chunk)
            regions += chunk_regions
            instructions += chunk_instructions
        handle.write(_CHUNK_MARKER.pack(0))
        handle.write(_TRAILER.pack(regions, instructions))


def _read_exact(handle: IO[bytes], size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise ValueError("truncated packed trace file")
    return data


def _unpickle_packed(name: str, raw_columns: Tuple[bytes, ...]) -> PackedTrace:
    """Rebuild a pickled :class:`PackedTrace` as heap arrays."""
    columns = []
    for (_, typecode), raw in zip(_COLUMNS, raw_columns, strict=True):
        column = array(typecode)
        column.frombytes(raw)
        columns.append(column)
    return PackedTrace(columns, name=name)


class _MappedReader:
    """Cursor over an mmap'd packed-trace file (zero-copy field reads)."""

    __slots__ = ("view", "offset")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.offset = 0

    def unpack(self, fmt: struct.Struct) -> Tuple[Any, ...]:
        end = self.offset + fmt.size
        if end > len(self.view):
            raise ValueError("truncated packed trace file")
        values = fmt.unpack_from(self.view, self.offset)
        self.offset = end
        return values

    def take(self, size: int) -> memoryview:
        end = self.offset + size
        if end > len(self.view):
            raise ValueError("truncated packed trace file")
        chunk = self.view[self.offset:end]
        self.offset = end
        return chunk


def _load_packed_mapped(path: Union[str, Path]) -> Optional[PackedTrace]:
    """Zero-copy loader: columns become memoryviews over an mmap of ``path``.

    Only single-chunk, native-byte-order artifacts can be mapped (a column
    split across chunks is not one contiguous byte range); returns ``None``
    when the file needs the copying reader instead.  Malformed files raise
    exactly like :func:`load_packed` — fallback is for *layout*, never for
    corruption.
    """
    with open(path, "rb") as handle:
        try:
            mapping = _mmap_module.mmap(
                handle.fileno(), 0, access=_mmap_module.ACCESS_READ
            )
        except (ValueError, OSError):
            # Un-mappable handle (empty file, exotic filesystem): the
            # copying reader will produce its usual result or error.
            return None
    reader = _MappedReader(memoryview(mapping))
    magic, version, byteorder, _ = reader.unpack(_HEADER)
    if magic != _MAGIC:
        raise ValueError(f"not a packed trace file: {path}")
    if version != PACKED_TRACE_FORMAT_VERSION:
        raise ValueError(
            f"packed trace format version {version} is not supported "
            f"(expected {PACKED_TRACE_FORMAT_VERSION})"
        )
    if byteorder != (0 if sys.byteorder == "little" else 1):
        return None  # foreign byte order: the copying reader byteswaps
    (name_length,) = reader.unpack(_U16)
    name = bytes(reader.take(name_length)).decode("utf-8")
    column_views: Optional[List[memoryview]] = None
    while True:
        (marker,) = reader.unpack(_CHUNK_MARKER)
        if marker == 0:
            break
        if column_views is not None:
            return None  # multi-chunk: columns are not contiguous
        reader.unpack(_U64)  # chunk region count (trailer re-validates)
        column_views = []
        for _, typecode in _COLUMNS:
            (byte_length,) = reader.unpack(_U64)
            try:
                column_views.append(reader.take(byte_length).cast(typecode))
            except TypeError:
                # A length that is not a multiple of the element size is
                # corruption; surface it as ValueError exactly like the
                # copying reader so TraceStore treats it as a clean miss.
                raise ValueError(
                    f"corrupt packed trace column in {path}: {byte_length} "
                    f"bytes is not a whole number of {typecode!r} elements"
                ) from None
    regions, instructions = reader.unpack(_TRAILER)
    if column_views is None:
        column_views = [
            reader.view[0:0].cast(typecode) for _, typecode in _COLUMNS
        ]
    trace = PackedTrace.from_buffers(column_views, name=name)
    if len(trace) != regions or trace.instruction_count != instructions:
        raise ValueError(
            f"packed trace trailer mismatch in {path}: "
            f"{len(trace)} regions/{trace.instruction_count} instructions read, "
            f"trailer says {regions}/{instructions}"
        )
    return trace


def load_packed(path: Union[str, Path], mmap: bool = False) -> PackedTrace:
    """Read a packed trace written by :func:`save_chunks`/:meth:`~PackedTrace.save`.

    With ``mmap=True`` the columns of a single-chunk, native-byte-order
    artifact are served as memoryviews straight over the page cache — no
    heap copy, shared across every process mapping the same file.  Files
    that cannot be mapped (multi-chunk streams, foreign byte order) fall
    back to the copying reader transparently.
    """
    if mmap:
        trace = _load_packed_mapped(path)
        if trace is not None:
            return trace
    with open(path, "rb") as handle:
        magic, version, byteorder, _ = _HEADER.unpack(_read_exact(handle, _HEADER.size))
        if magic != _MAGIC:
            raise ValueError(f"not a packed trace file: {path}")
        if version != PACKED_TRACE_FORMAT_VERSION:
            raise ValueError(
                f"packed trace format version {version} is not supported "
                f"(expected {PACKED_TRACE_FORMAT_VERSION})"
            )
        (name_length,) = _U16.unpack(_read_exact(handle, _U16.size))
        name = _read_exact(handle, name_length).decode("utf-8")
        swap = byteorder != (0 if sys.byteorder == "little" else 1)
        columns = _empty_columns()
        while True:
            (marker,) = _CHUNK_MARKER.unpack(_read_exact(handle, _CHUNK_MARKER.size))
            if marker == 0:
                break
            _U64.unpack(_read_exact(handle, _U64.size))  # chunk region count
            for column in columns:
                (byte_length,) = _U64.unpack(_read_exact(handle, _U64.size))
                part = array(column.typecode)
                part.frombytes(_read_exact(handle, byte_length))
                if swap:
                    part.byteswap()
                column.extend(part)
        regions, instructions = _TRAILER.unpack(_read_exact(handle, _TRAILER.size))
    trace = PackedTrace(columns, name=name)
    if len(trace) != regions or trace.instruction_count != instructions:
        raise ValueError(
            f"packed trace trailer mismatch in {path}: "
            f"{len(trace)} regions/{trace.instruction_count} instructions read, "
            f"trailer says {regions}/{instructions}"
        )
    return trace


class PackedTraceBuilder:
    """Chunked appender producing a :class:`PackedTrace`.

    Appends accumulate in plain Python lists (the fastest append path) and
    are flushed into the arrays every ``chunk_regions`` entries, so building
    an N-region trace never holds more than one chunk of boxed integers.
    """

    def __init__(self, name: str = "trace", chunk_regions: int = 1 << 16) -> None:
        if chunk_regions <= 0:
            raise ValueError("chunk_regions must be positive")
        self.name = name
        self.chunk_regions = chunk_regions
        self._columns = _empty_columns()
        self._buffers: List[List[int]] = [[] for _ in _COLUMNS]
        self._buffered = 0

    def __len__(self) -> int:
        return len(self._columns[0]) + self._buffered

    def append(
        self,
        start: int,
        instruction_count: int,
        branch_pc: int,
        kind: int,
        taken: int,
        target: int,
        next_pc: int,
    ) -> None:
        """Append one region; ``branch_pc``/``kind``/``target`` use ``-1`` for None.

        The block-span columns are derived here, once, so every later
        consumer reads them instead of recomputing the span.
        """
        first = block_address(start)
        last = block_address(start + (instruction_count - 1) * INSTRUCTION_SIZE_BYTES)
        buffers = self._buffers
        buffers[0].append(start)
        buffers[1].append(instruction_count)
        buffers[2].append(branch_pc)
        buffers[3].append(kind)
        buffers[4].append(taken)
        buffers[5].append(target)
        buffers[6].append(next_pc)
        buffers[7].append(first)
        buffers[8].append((last - first) // BLOCK_SIZE_BYTES + 1)
        self._buffered += 1
        if self._buffered >= self.chunk_regions:
            self._flush()

    def append_record(self, record: "FetchRecord") -> None:
        """Append a :class:`~repro.workloads.trace.FetchRecord` (view-path compat)."""
        branch_pc = record.branch_pc if record.branch_pc is not None else NO_VALUE
        target = record.target if record.target is not None else NO_VALUE
        self.append(
            record.start,
            record.instruction_count,
            branch_pc,
            kind_code(record.kind),
            1 if record.taken else 0,
            target,
            record.next_pc,
        )

    def _flush(self) -> None:
        for column, buffer in zip(self._columns, self._buffers, strict=True):
            column.extend(buffer)
            del buffer[:]
        self._buffered = 0

    def take_chunk(self) -> Optional[PackedTrace]:
        """Detach everything appended so far as one chunk (streaming writes)."""
        self._flush()
        if not len(self._columns[0]):
            return None
        chunk = PackedTrace(self._columns, name=self.name)
        self._columns = _empty_columns()
        return chunk

    def build(self) -> PackedTrace:
        """Finish and return the packed trace (the builder can be reused)."""
        self._flush()
        trace = PackedTrace(self._columns, name=self.name)
        self._columns = _empty_columns()
        return trace

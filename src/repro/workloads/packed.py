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

Traces are built through :class:`PackedTraceBuilder`, which buffers regions
in plain lists and flushes them into the arrays every ``_FLUSH_REGIONS``
regions, so generation never holds more boxed integers than that.  A region
is a :func:`region_row` (its static columns, block span included) plus its
outcome (``taken``, ``next_pc``); the trace walker computes one row per
block it visits and hands each operation's regions over in one batch.
:meth:`PackedTrace.save` writes a trace as one compact binary file — a
header, one block of the nine columns and a trailer; the
:class:`repro.sweep.TraceStore` artifact format — and :func:`load_packed`
maps such a file back in.

A loaded trace's columns are read-only ``memoryview``s over an ``mmap`` of
the artifact: no byte is copied, so every process sharing a trace store
reads the same page-cache pages instead of each holding a private heap
copy.  A generated trace's columns are heap ``array``s.  The two behave
identically (the parity suite pins it); pickling a mapped trace (e.g.
handing it to a worker process) materializes heap arrays.
"""

from __future__ import annotations

import mmap
import struct
import sys
from array import array
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
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
    BLOCK_MASK,
    BLOCK_SIZE_BYTES,
    INSTRUCTION_SIZE_BYTES,
    BranchKind,
)

if TYPE_CHECKING:  # import cycle guard: trace.py imports this module
    from repro.branch.columns import BranchColumns
    from repro.workloads.trace import FetchRecord

__all__ = [
    "COLUMN_NAMES",
    "KIND_CODES",
    "PACKED_TRACE_FORMAT_VERSION",
    "PackedTrace",
    "PackedTraceBuilder",
    "kind_code",
    "kind_from_code",
    "load_packed",
    "region_row",
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

#: The column attributes of a :class:`PackedTrace`, in on-disk order.
COLUMN_NAMES: Tuple[str, ...] = tuple(name for name, _ in _COLUMNS)

#: Regions a :class:`PackedTraceBuilder` buffers in plain lists before it
#: flushes them into its arrays.
_FLUSH_REGIONS = 1 << 16

_MAGIC = b"RPKT"
_HEADER = struct.Struct("<4sHBB")  # magic, format version, byteorder, reserved
_BLOCK_MARKER = struct.Struct("<B")  # 1 = column block follows, 0 = trailer
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_TRAILER = struct.Struct("<QQ")  # total regions, total instructions
_NATIVE_BYTEORDER = 0 if sys.byteorder == "little" else 1


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


#: The static columns of one region, in :func:`region_row` order: start,
#: instruction count, branch pc, kind code, target, first block, block count.
RegionRow = Tuple[int, int, int, int, int, int, int]


def region_row(
    start: int, instruction_count: int, branch_pc: int, kind: int, target: int
) -> RegionRow:
    """The static columns of a region, with its 64 B block span derived.

    ``branch_pc``/``kind``/``target`` use ``-1`` for None.  This is the one
    place the span is computed: every later consumer reads the block
    columns instead.
    """
    first = start & BLOCK_MASK
    last = (start + (instruction_count - 1) * INSTRUCTION_SIZE_BYTES) & BLOCK_MASK
    return (
        start, instruction_count, branch_pc, kind, target,
        first, (last - first) // BLOCK_SIZE_BYTES + 1,
    )


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
    :func:`load_packed`); :attr:`mapped` tells the two apart.
    """

    __slots__ = COLUMN_NAMES + (
        "name",
        "_instruction_count",
        "_branch_columns",
        "_study_memo",
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
        #: Figure-study results by configuration key, each stored with the
        #: program it ran against (:mod:`repro.analysis.experiments`; never
        #: pickled).
        self._study_memo: Dict[str, Tuple[object, Any]] = {}

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
        # receiving side re-maps from the artifact path instead (the sweep
        # scheduler hands workers paths, not traces).
        raw = tuple(getattr(self, attr).tobytes() for attr in COLUMN_NAMES)
        return (_unpickle_packed, (self.name, raw))

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def instruction_count(self) -> int:
        if self._instruction_count is None:
            self._instruction_count = sum(self.instruction_counts)
        return self._instruction_count

    def region_blocks(self, index: int) -> range:
        """Block addresses touched by region ``index``, in fetch order.

        A ``range`` over the span the block columns encode; no tuple is built.
        """
        first = self.block_firsts[index]
        stop = first + self.block_counts[index] * BLOCK_SIZE_BYTES
        return range(first, stop, BLOCK_SIZE_BYTES)

    def slice(self, start: int, stop: Optional[int] = None) -> "PackedTrace":
        """A new packed trace over ``[start:stop]`` (list-slice semantics)."""
        return PackedTrace(
            (getattr(self, attr)[start:stop] for attr in COLUMN_NAMES),
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # Columnar walks
    # ------------------------------------------------------------------ #

    def iter_blocks(self) -> Iterator[int]:
        """Every block address touched, region by region, in fetch order.

        Duplicates are included: a block two regions touch is yielded twice.
        """
        block_size = BLOCK_SIZE_BYTES
        for first, count in zip(self.block_firsts, self.block_counts, strict=True):
            if count == 1:
                yield first
            else:
                yield from range(first, first + count * block_size, block_size)

    def statistics_tuple(self) -> Tuple[int, ...]:
        """Aggregate counters in one columnar pass.

        Returns the raw counter tuple ``(instructions, regions, branches,
        taken, conditionals, conditional_taken, calls, returns, indirects,
        unique_blocks, unique_taken_branches)``;
        :meth:`repro.workloads.trace.Trace.statistics` wraps it in a
        :class:`~repro.workloads.trace.TraceStatistics`.
        """
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
        branches = taken = conditionals = conditional_taken = 0
        calls = returns = indirects = 0
        taken_pcs: Set[int] = set()
        for branch_pc, code, outcome in zip(
            self.branch_pcs, self.kinds, self.takens, strict=True
        ):
            if branch_pc == NO_VALUE:
                continue
            branches += 1
            if code == cond:
                conditionals += 1
                if outcome:
                    conditional_taken += 1
            if code in call_codes:
                calls += 1
            if code == ret:
                returns += 1
            if code in indirect_codes:
                indirects += 1
            if outcome:
                taken += 1
                taken_pcs.add(branch_pc)
        return (
            self.instruction_count,
            len(self),
            branches,
            taken,
            conditionals,
            conditional_taken,
            calls,
            returns,
            indirects,
            len(set(self.iter_blocks())),
            len(taken_pcs),
        )

    # ------------------------------------------------------------------ #
    # On-disk form
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path``: header, one column block, trailer."""
        encoded_name = self.name.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(
                _MAGIC, PACKED_TRACE_FORMAT_VERSION, _NATIVE_BYTEORDER, 0
            ))
            handle.write(_U16.pack(len(encoded_name)))
            handle.write(encoded_name)
            handle.write(_BLOCK_MARKER.pack(1))
            handle.write(_U64.pack(len(self)))
            for attr in COLUMN_NAMES:
                raw = getattr(self, attr).tobytes()
                handle.write(_U64.pack(len(raw)))
                handle.write(raw)
            handle.write(_BLOCK_MARKER.pack(0))
            handle.write(_TRAILER.pack(len(self), self.instruction_count))


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

    __slots__ = ("view", "offset", "path")

    def __init__(self, view: memoryview, path: Union[str, Path]) -> None:
        self.view = view
        self.offset = 0
        self.path = path

    def take(self, size: int) -> memoryview:
        end = self.offset + size
        if end > len(self.view):
            raise ValueError(f"truncated packed trace file: {self.path}")
        chunk = self.view[self.offset:end]
        self.offset = end
        return chunk

    def unpack(self, fmt: struct.Struct) -> Tuple[Any, ...]:
        return fmt.unpack(self.take(fmt.size))


def load_packed(path: Union[str, Path]) -> PackedTrace:
    """Map a packed trace written by :meth:`PackedTrace.save` back in.

    The columns are memoryviews straight over the page cache — no heap
    copy, shared across every process mapping the same file.  A file that
    is not exactly the layout :meth:`~PackedTrace.save` writes (truncated or
    foreign bytes, another format version, the other byte order, a second
    column block) or that cannot be mapped raises :class:`ValueError`
    naming ``path``.
    """
    with open(path, "rb") as handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as error:
            raise ValueError(f"cannot map packed trace file {path}: {error}") from None
    reader = _MappedReader(memoryview(mapping), path)
    magic, version, byteorder, _ = reader.unpack(_HEADER)
    if magic != _MAGIC:
        raise ValueError(f"not a packed trace file: {path}")
    if version != PACKED_TRACE_FORMAT_VERSION:
        raise ValueError(
            f"packed trace format version {version} in {path} is not "
            f"supported (expected {PACKED_TRACE_FORMAT_VERSION})"
        )
    if byteorder != _NATIVE_BYTEORDER:
        raise ValueError(
            f"packed trace {path} was written in the other byte order"
        )
    (name_length,) = reader.unpack(_U16)
    name = bytes(reader.take(name_length)).decode("utf-8")
    (marker,) = reader.unpack(_BLOCK_MARKER)
    if marker != 1:
        raise ValueError(f"packed trace {path} holds no column block")
    reader.unpack(_U64)  # block region count (the trailer re-validates)
    column_views: List[memoryview] = []
    for _, typecode in _COLUMNS:
        (byte_length,) = reader.unpack(_U64)
        try:
            column_views.append(reader.take(byte_length).cast(typecode))
        except TypeError:
            # A length that is not a multiple of the element size is
            # corruption; surface it as ValueError so TraceStore treats it
            # as a clean miss.
            raise ValueError(
                f"corrupt packed trace column in {path}: {byte_length} "
                f"bytes is not a whole number of {typecode!r} elements"
            ) from None
    (marker,) = reader.unpack(_BLOCK_MARKER)
    if marker != 0:
        raise ValueError(
            f"packed trace {path} holds a second column block (only one "
            "is supported)"
        )
    regions, instructions = reader.unpack(_TRAILER)
    trace = PackedTrace.from_buffers(column_views, name=name)
    if len(trace) != regions or trace.instruction_count != instructions:
        raise ValueError(
            f"packed trace trailer mismatch in {path}: "
            f"{len(trace)} regions/{trace.instruction_count} instructions read, "
            f"trailer says {regions}/{instructions}"
        )
    return trace


class PackedTraceBuilder:
    """Buffered appender producing a :class:`PackedTrace`.

    Regions accumulate in plain Python lists (the fastest append path) and
    are flushed into the arrays every ``_FLUSH_REGIONS`` regions, so
    building an N-region trace never holds more than that many boxed
    integers per column.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._columns = _empty_columns()
        self._buffers: List[List[int]] = [[] for _ in _COLUMNS]
        self._buffered = 0

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
        """Append one region; ``branch_pc``/``kind``/``target`` use ``-1`` for None."""
        self.extend(
            (region_row(start, instruction_count, branch_pc, kind, target),),
            (taken,),
            (next_pc,),
        )

    def extend(
        self,
        rows: Sequence[RegionRow],
        takens: Sequence[int],
        next_pcs: Sequence[int],
    ) -> None:
        """Append a batch of regions: region ``i`` is ``rows[i]`` (a
        :func:`region_row`) with outcome ``takens[i]`` and ``next_pcs[i]``.

        The batch is split at the flush bound, so the buffers never hold
        more than ``_FLUSH_REGIONS`` regions.
        """
        buffers = self._buffers
        done = 0
        total = len(rows)
        while done < total:
            stop = min(total, done + _FLUSH_REGIONS - self._buffered)
            starts, counts, branch_pcs, kinds, targets, firsts, spans = zip(
                *rows[done:stop]
            )
            buffers[0].extend(starts)
            buffers[1].extend(counts)
            buffers[2].extend(branch_pcs)
            buffers[3].extend(kinds)
            buffers[4].extend(takens[done:stop])
            buffers[5].extend(targets)
            buffers[6].extend(next_pcs[done:stop])
            buffers[7].extend(firsts)
            buffers[8].extend(spans)
            self._buffered += stop - done
            done = stop
            if self._buffered >= _FLUSH_REGIONS:
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
            column.fromlist(buffer)
            del buffer[:]
        self._buffered = 0

    def build(self) -> PackedTrace:
        """Finish and return the packed trace (the builder can be reused)."""
        self._flush()
        trace = PackedTrace(self._columns, name=self.name)
        self._columns = _empty_columns()
        return trace

"""Fetch-region traces and their statistics.

The frontend mechanisms in the paper all operate on the stream of *fetch
regions* (basic blocks) produced by the branch prediction unit, so the trace
is recorded at that granularity: one fetch region per executed basic block,
carrying the terminating branch and its dynamic outcome.

The canonical storage is columnar — a :class:`~repro.workloads.packed.PackedTrace`
holding one column per field: an ``array`` for a generated trace, a
``memoryview`` over the mapped artifact for a loaded one — which the hot
simulation loops index directly.  :class:`Trace` and :class:`FetchRecord`
are the record-level API on top: ``trace.records`` is a lazy view that
materializes a :class:`FetchRecord` only when one is actually asked for, so
code written against the record interface keeps working while the columnar
fast paths never pay for it.  The statistics (:meth:`Trace.statistics`,
:meth:`Trace.branch_density`) are single pure-Python passes over the
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    overload,
)

from repro.isa.instruction import (
    BLOCK_SIZE_BYTES,
    INSTRUCTION_SIZE_BYTES,
    BranchKind,
    block_address,
)
from repro.workloads.packed import (
    NO_VALUE,
    PackedTrace,
    PackedTraceBuilder,
    kind_from_code,
)


@dataclass(frozen=True)
class FetchRecord:
    """One executed fetch region (basic block) of the correct path.

    Attributes:
        start: address of the first instruction of the region.
        instruction_count: number of instructions executed in the region,
            including the terminating branch when present.
        branch_pc: address of the terminating branch, or None when the region
            ends without a branch (e.g. a trace cut).
        kind: branch kind of the terminating branch, or None.
        taken: dynamic outcome of the terminating branch.
        target: statically-encoded target of the branch (None for indirect
            branches and returns whose target is dynamic).
        next_pc: address of the next fetch region actually executed.
    """

    start: int
    instruction_count: int
    branch_pc: Optional[int]
    kind: Optional[BranchKind]
    taken: bool
    target: Optional[int]
    next_pc: int

    @property
    def end(self) -> int:
        """Address one past the last instruction of the region."""
        return self.start + self.instruction_count * INSTRUCTION_SIZE_BYTES

    @property
    def last_instruction(self) -> int:
        return self.start + (self.instruction_count - 1) * INSTRUCTION_SIZE_BYTES

    @property
    def fallthrough(self) -> int:
        """Address following the terminating branch (used on not-taken)."""
        if self.branch_pc is None:
            return self.end
        return self.branch_pc + INSTRUCTION_SIZE_BYTES

    @property
    def has_branch(self) -> bool:
        return self.branch_pc is not None

    @property
    def is_taken_branch(self) -> bool:
        return self.branch_pc is not None and self.taken

    def blocks(self) -> Tuple[int, ...]:
        """Block addresses touched by the region, in fetch order."""
        first = block_address(self.start)
        last = block_address(self.last_instruction)
        return tuple(range(first, last + 1, BLOCK_SIZE_BYTES))


@dataclass
class TraceStatistics:
    """Aggregate properties of a trace, used to validate workload realism."""

    instruction_count: int = 0
    fetch_region_count: int = 0
    branch_count: int = 0
    taken_branch_count: int = 0
    conditional_count: int = 0
    conditional_taken_count: int = 0
    call_count: int = 0
    return_count: int = 0
    indirect_count: int = 0
    unique_blocks: int = 0
    unique_taken_branches: int = 0

    @property
    def instruction_footprint_bytes(self) -> int:
        return self.unique_blocks * BLOCK_SIZE_BYTES

    @property
    def taken_branch_fraction(self) -> float:
        if self.branch_count == 0:
            return 0.0
        return self.taken_branch_count / self.branch_count

    @property
    def average_region_length(self) -> float:
        if self.fetch_region_count == 0:
            return 0.0
        return self.instruction_count / self.fetch_region_count


class RecordView(Sequence[FetchRecord]):
    """Lazy record-level view of a :class:`PackedTrace`.

    Indexing materializes one :class:`FetchRecord` from the columns;
    iteration streams them without ever holding the whole list.
    """

    __slots__ = ("_packed",)

    def __init__(self, packed: PackedTrace) -> None:
        self._packed = packed

    def __len__(self) -> int:
        return len(self._packed)

    def _record(self, index: int) -> FetchRecord:
        packed = self._packed
        branch_pc = packed.branch_pcs[index]
        target = packed.targets[index]
        return FetchRecord(
            start=packed.starts[index],
            instruction_count=packed.instruction_counts[index],
            branch_pc=branch_pc if branch_pc != NO_VALUE else None,
            kind=kind_from_code(packed.kinds[index]),
            taken=bool(packed.takens[index]),
            target=target if target != NO_VALUE else None,
            next_pc=packed.next_pcs[index],
        )

    @overload
    def __getitem__(self, index: int) -> FetchRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[FetchRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[FetchRecord, List[FetchRecord]]:
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        return self._record(index)

    def __iter__(self) -> Iterator[FetchRecord]:
        packed = self._packed
        for start, count, branch_pc, code, taken, target, next_pc in zip(
            packed.starts,
            packed.instruction_counts,
            packed.branch_pcs,
            packed.kinds,
            packed.takens,
            packed.targets,
            packed.next_pcs,
            strict=True,
        ):
            yield FetchRecord(
                start=start,
                instruction_count=count,
                branch_pc=branch_pc if branch_pc != NO_VALUE else None,
                kind=kind_from_code(code),
                taken=bool(taken),
                target=target if target != NO_VALUE else None,
                next_pc=next_pc,
            )


def pack_records(
    records: Iterable[FetchRecord], name: str = "trace"
) -> PackedTrace:
    """Pack a record sequence into columns (the view-path constructor)."""
    builder = PackedTraceBuilder(name=name)
    for record in records:
        builder.append_record(record)
    return builder.build()


class Trace:
    """A fetch-region trace: columnar storage, record-level API.

    May be constructed from a sequence of :class:`FetchRecord` (packed on
    the spot) or, via :meth:`from_packed`, directly over an existing
    :class:`~repro.workloads.packed.PackedTrace` — the generator and the
    on-disk trace store use the latter, so no record objects exist unless a
    consumer asks for them.
    """

    def __init__(
        self,
        records: Union[Sequence[FetchRecord], PackedTrace],
        name: str = "trace",
    ) -> None:
        self.name = name
        if isinstance(records, PackedTrace):
            self._packed = records
        else:
            self._packed = pack_records(records, name=name)

    @classmethod
    def from_packed(cls, packed: PackedTrace, name: Optional[str] = None) -> "Trace":
        return cls(packed, name=name if name is not None else packed.name)

    @property
    def packed(self) -> PackedTrace:
        """The columnar storage behind this trace."""
        return self._packed

    def __iter__(self) -> Iterator[FetchRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, index: int) -> FetchRecord:
        return self.records[index]

    @property
    def records(self) -> RecordView:
        return RecordView(self._packed)

    @property
    def instruction_count(self) -> int:
        return self._packed.instruction_count

    def block_stream(self) -> Iterator[int]:
        """Block addresses in fetch order with consecutive duplicates removed.

        This is the stream an L1-I front end observes: repeated accesses to
        the same block within a fetch region (or across back-to-back regions)
        do not re-access the cache.
        """
        previous = None
        for block in self._packed.iter_blocks():
            if block != previous:
                yield block
                previous = block

    def statistics(self) -> TraceStatistics:
        (
            instructions,
            regions,
            branches,
            taken,
            conditionals,
            conditional_taken,
            calls,
            returns,
            indirects,
            unique_blocks,
            unique_taken,
        ) = self._packed.statistics_tuple()
        return TraceStatistics(
            instruction_count=instructions,
            fetch_region_count=regions,
            branch_count=branches,
            taken_branch_count=taken,
            conditional_count=conditionals,
            conditional_taken_count=conditional_taken,
            call_count=calls,
            return_count=returns,
            indirect_count=indirects,
            unique_blocks=unique_blocks,
            unique_taken_branches=unique_taken,
        )

    def branch_density(self) -> Dict[str, float]:
        """Static and dynamic branch density per touched block (Table 2).

        *Static* is the mean number of distinct branch PCs observed per
        touched block over the whole trace; *dynamic* approximates the mean
        number of distinct taken branches exercised per block per visit
        episode, the quantity Table 2 reports for block residency in the
        L1-I.
        """
        packed = self._packed
        static_branches: Dict[int, Set[int]] = {}
        dynamic_counts: List[int] = []
        current_block: Optional[int] = None
        current_branches: Set[int] = set()
        for branch_pc, taken in zip(packed.branch_pcs, packed.takens, strict=True):
            if branch_pc == NO_VALUE:
                continue
            branch_block = block_address(branch_pc)
            static_branches.setdefault(branch_block, set()).add(branch_pc)
            if branch_block != current_block:
                if current_block is not None:
                    dynamic_counts.append(len(current_branches))
                current_block = branch_block
                current_branches = set()
            if taken:
                current_branches.add(branch_pc)
        if current_block is not None:
            dynamic_counts.append(len(current_branches))
        static = (
            sum(len(pcs) for pcs in static_branches.values()) / len(static_branches)
            if static_branches
            else 0.0
        )
        dynamic = sum(dynamic_counts) / len(dynamic_counts) if dynamic_counts else 0.0
        return {"static": static, "dynamic": dynamic}

    def head(self, count: int) -> "Trace":
        """Return a new trace containing the first ``count`` records."""
        return Trace.from_packed(
            self._packed.slice(0, count), name=f"{self.name}[:{count}]"
        )

    @classmethod
    def concatenate(cls, traces: Iterable["Trace"], name: str = "concat") -> "Trace":
        packed = PackedTrace.concatenate(
            (trace.packed for trace in traces), name=name
        )
        return cls.from_packed(packed, name=name)

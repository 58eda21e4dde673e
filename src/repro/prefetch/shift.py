"""SHIFT: Shared History Instruction Fetch (Kaynak, Grot & Falsafi, 2013).

SHIFT records the L1-I access stream of one core at instruction-block
granularity in a circular *history buffer* and keeps an *index table* that
maps a block address to its most recent position in the history.  When a core
misses in the L1-I, the index is probed and, on a hit, the stream starting at
that position is replayed: the following block addresses are prefetched ahead
of the fetch stream, and as the core's demands confirm the predictions the
stream is extended.

Both structures are virtualized in the LLC (predictor virtualization): the
history buffer occupies reserved LLC blocks and the index lives in an
extended LLC tag array, so the only meaningful per-core cost is a share of
the tag-array extension (~0.06 mm^2 per core, Section 4.2.1).

One instance of the history is shared by all cores running the same
workload; Confluence inherits this sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.caches.llc import SharedLLC
from repro.isa.instruction import BLOCK_SIZE_BYTES
from repro.prefetch.base import InstructionPrefetcher, PrefetchContext
from repro.registry import PREFETCHER_REGISTRY, BuildContext


@dataclass(frozen=True)
class ShiftConfig:
    """SHIFT sizing, matching Section 4.2.1.

    ``read_ahead_degree`` is the lookahead the stream engine keeps between
    the core's fetch stream and the replayed history (in instruction blocks);
    ``divergence_threshold`` is how many uncovered demand misses the engine
    tolerates before it abandons the active stream and re-anchors at the
    missing block.
    """

    history_entries: int = 96 * 1024
    index_entries: int = 96 * 1024
    read_ahead_degree: int = 24
    divergence_threshold: int = 1

    # NOTE: the paper sizes the history at 32K entries, which is "sufficient
    # to capture the instruction working set of the server workloads
    # evaluated" there.  Our synthetic requests produce longer block-access
    # streams per unit of unique footprint than the commercial traces, so the
    # default here is 96K entries — still virtualized in the LLC (~0.6 MB of
    # a multi-megabyte LLC) and still negligible per-core area, preserving the
    # paper's cost story.

    @property
    def history_storage_kb(self) -> float:
        """History buffer footprint (virtualized in LLC data blocks)."""
        # Each entry holds a block address pointer; the paper quotes 204 KB
        # for 32K entries (~51 bits per entry with pointers and tags).
        return self.history_entries * 51 / 8 / 1024

    @property
    def index_storage_kb(self) -> float:
        """Index footprint (embedded in the LLC tag array)."""
        return self.index_entries * 60 / 8 / 1024


class ShiftHistory:
    """Shared circular history buffer plus index table.

    A single instance is shared by every core running the same workload: one
    designated core records its block access stream, all cores read it.
    """

    def __init__(
        self,
        config: Optional[ShiftConfig] = None,
        llc: Optional[SharedLLC] = None,
        region_name: str = "shift_history",
    ) -> None:
        self.config = config or ShiftConfig()
        self.llc = llc
        # Heterogeneous CMPs virtualize one history per workload in the same
        # LLC; distinct region names keep their capacity accounting separate.
        self._region_name = region_name
        if llc is not None:
            blocks = int(self.config.history_storage_kb * 1024 / BLOCK_SIZE_BYTES) + 1
            llc.reserve_region(self._region_name, blocks)
        capacity = self.config.history_entries
        self._buffer: List[int] = [0] * capacity
        self._valid = 0  # number of entries written so far (saturates at capacity)
        self._head = 0  # next write position
        self._index: Dict[int, int] = {}
        self.records = 0
        self.index_hits = 0
        self.index_lookups = 0

    @property
    def capacity(self) -> int:
        return self.config.history_entries

    def record(self, block_addr: int) -> None:
        """Append one L1-I block access to the shared history."""
        position = self._head
        overwritten = self._buffer[position]
        self._buffer[position] = block_addr
        self._index[block_addr] = position
        # Drop the index entry of the overwritten slot if it still points here.
        if (
            self._valid == self.capacity
            and overwritten != block_addr
            and self._index.get(overwritten) == position
        ):
            del self._index[overwritten]
        self._head = (position + 1) % self.capacity
        self._valid = min(self._valid + 1, self.capacity)
        self.records += 1
        if self.llc is not None and self.records % (BLOCK_SIZE_BYTES // 8) == 0:
            # Histories are spilled to their LLC region a block at a time.
            self.llc.write_metadata(self._region_name)

    def lookup(self, block_addr: int) -> Optional[int]:
        """Position of the most recent occurrence of ``block_addr``."""
        self.index_lookups += 1
        position = self._index.get(block_addr)
        if position is None:
            return None
        self.index_hits += 1
        if self.llc is not None:
            self.llc.read_metadata(self._region_name)
        return position

    def read_stream(self, position: int, count: int) -> List[int]:
        """Read ``count`` block addresses following ``position`` (exclusive)."""
        if self._valid == 0 or count <= 0:
            return []
        result: List[int] = []
        cursor = (position + 1) % self.capacity
        available = self._valid
        steps = 0
        while steps < count and steps < available:
            if cursor == self._head:
                break
            result.append(self._buffer[cursor])
            cursor = (cursor + 1) % self.capacity
            steps += 1
        return result

    @property
    def index_hit_rate(self) -> float:
        if self.index_lookups == 0:
            return 0.0
        return self.index_hits / self.index_lookups


class _ActiveStream:
    """The stream being replayed ahead of the core's fetch stream."""

    __slots__ = ("position", "pending", "confirmations")

    def __init__(self, position: int, pending: List[int]) -> None:
        self.position = position
        self.pending = pending
        self.confirmations = 0


class ShiftPrefetcher(InstructionPrefetcher):
    """Per-core SHIFT engine replaying the shared history.

    The engine keeps a single active stream anchored at the most recent
    L1-I miss that could not be explained by the stream it was following.
    While the core's demanded blocks keep matching the stream's read-ahead
    window, the window is topped up so the engine stays ``read_ahead_degree``
    blocks ahead of the fetch stream; once a few demand misses slip through
    without being covered, the stream has evidently diverged and is
    re-anchored at the missing block.
    """

    name = "shift"

    def __init__(
        self,
        history: ShiftHistory,
        record_history: bool = True,
        config: Optional[ShiftConfig] = None,
    ) -> None:
        super().__init__()
        self.history = history
        self.config = config or history.config
        #: Whether this core generates the shared history (exactly one core
        #: per workload does; the others only consume it).
        self.record_history = record_history
        self._stream: Optional[_ActiveStream] = None
        self._uncovered_misses = 0
        self._last_recorded_block: Optional[int] = None
        self.streams_started = 0
        self.stream_confirmations = 0

    def prefetch_targets(self, context: PrefetchContext) -> Iterable[int]:
        targets: List[int] = []
        # Re-anchoring decisions happen *before* recording the current access:
        # the index must resolve to the previous occurrence of the missing
        # block, whose successors are the blocks about to be needed.
        if context.demand_miss_block is not None:
            self._on_demand_miss(context.demand_miss_block, targets)
        for block in context.region_blocks():
            self._confirm(block, targets)
            if self.record_history and block != self._last_recorded_block:
                self.history.record(block)
                self._last_recorded_block = block
        self.issued_prefetches += len(targets)
        return targets

    def _on_demand_miss(self, trigger_block: int, targets: List[int]) -> None:
        """Decide whether an uncovered miss means the stream has diverged."""
        stream = self._stream
        if stream is not None and trigger_block in stream.pending:
            # The stream knew about this block; the prefetch simply was not
            # timely (or was filtered).  Not a divergence.
            return
        self._uncovered_misses += 1
        if stream is None or self._uncovered_misses > self.config.divergence_threshold:
            self._anchor_stream(trigger_block, targets)

    def _anchor_stream(self, trigger_block: int, targets: List[int]) -> None:
        """(Re-)start replay at the previous occurrence of ``trigger_block``."""
        position = self.history.lookup(trigger_block)
        if position is None:
            return
        pending = self.history.read_stream(position, self.config.read_ahead_degree)
        if not pending:
            return
        self._stream = _ActiveStream(
            position=(position + len(pending)) % self.history.capacity,
            pending=pending,
        )
        self._uncovered_misses = 0
        self.streams_started += 1
        targets.extend(pending)

    def _confirm(self, block: int, targets: List[int]) -> None:
        """Demanded blocks that match the stream keep its lookahead topped up."""
        stream = self._stream
        if stream is None or block not in stream.pending:
            return
        stream.pending.remove(block)
        stream.confirmations += 1
        self.stream_confirmations += 1
        self._uncovered_misses = 0
        top_up = self.config.read_ahead_degree - len(stream.pending)
        if top_up <= 0:
            return
        extension = self.history.read_stream(stream.position, top_up)
        stream.position = (stream.position + len(extension)) % self.history.capacity
        stream.pending.extend(extension)
        targets.extend(extension)

    @property
    def storage_kb(self) -> float:
        """Dedicated per-core storage: none (history and index live in LLC)."""
        return 0.0


@PREFETCHER_REGISTRY.register("shift")
def _build_shift(ctx: BuildContext, **params: Any) -> InstructionPrefetcher:
    """SHIFT shares one history per workload; Confluence brings its own."""
    if ctx.confluence is not None:
        return ctx.confluence.prefetcher
    history = ctx.shared_history
    if history is None:
        history = ShiftHistory(llc=ctx.llc)
    params.setdefault("record_history", ctx.record_history)
    return ShiftPrefetcher(history, **params)

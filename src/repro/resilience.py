"""Crash-resumable execution primitives behind the sweep scheduler.

Three small, stdlib-only pieces (``sweep.py`` composes them; keeping them
here keeps the import graph acyclic — :mod:`repro.core.cmp` raises
:class:`CellExecutionError` too and must not import the sweep engine):

* :class:`RetryPolicy` — the bounded-retry / deterministic-backoff /
  cell-timeout / pool-rebuild knobs of :func:`repro.sweep.run_cells`.
  Backoff is a pure function of the attempt number (exponential, capped,
  **no jitter**): determinism is the repo-wide contract (staticcheck R002
  and R006), and uncoordinated sweeps sharing a cache don't need
  decorrelation — the content-addressed stores already make duplicated
  work harmless.
* :class:`CellExecutionError` — a worker failure that *names the cell*
  (workload, design, seed base).  It carries one message string,
  so it pickles losslessly across the process-pool boundary (chained
  ``__cause__`` exceptions do not survive pickling).
* :class:`RunJournal` — an append-only JSONL record of completed cells,
  keyed by the sweep's full cell-key set, so a killed sweep resumed with
  ``python -m repro sweep --resume`` re-runs exactly the missing cells.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.registry import check_count

__all__ = ["CellExecutionError", "RetryPolicy", "RunJournal"]


class CellExecutionError(RuntimeError):
    """A sweep cell failed; the message names it.

    Raised by pool workers around the underlying error so the parent —
    and the user's traceback — always see *which* (workload, design, seed)
    cell died, not just a bare ``OSError`` from an anonymous worker.
    Constructed with a single message string so it round-trips through the
    process-pool pickle boundary without losing information.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic backoff for sweep cells.

    ``retries`` is the number of *re-executions* allowed per cell after its
    first attempt (0 disables retry).  ``delay(attempt)`` is the pause
    before re-execution number ``attempt + 1``: exponential in the attempt
    number, capped at ``backoff_cap``, with no jitter — the same policy
    always produces the same schedule (staticcheck R006 enforces this shape
    on every retry loop in scope).

    ``cell_timeout`` bounds one cell attempt's wall-clock seconds in the
    pooled scheduler; an expired cell's worker is presumed stuck, the pool
    is rebuilt and the cell is charged a retry.  ``max_pool_rebuilds``
    bounds how many times a broken pool (a worker killed by the OS, an
    unpicklable crash) is rebuilt before the scheduler degrades to the
    serial path for the remaining cells.
    """

    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0
    cell_timeout: Optional[float] = None
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        check_count("retries", self.retries, 0)
        check_count("max_pool_rebuilds", self.max_pool_rebuilds, 0)
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff and backoff_cap must be non-negative")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive when given")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-execution ``attempt + 1`` (attempt >= 0)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.backoff * (2.0 ** attempt), self.backoff_cap)


#: Journal file format version; a mismatch makes the whole file unusable
#: (resume falls back to re-running every cell — safe, never wrong).
JOURNAL_SCHEMA_VERSION = 1


class RunJournal:
    """Append-only JSONL record of one sweep's completed cells.

    The journal is **keyed by the sweep's cell-key set**: its file name is
    the SHA-256 of the sorted cell keys, so a resumed invocation with the
    same grid finds the same file, and any parameter change lands in a
    fresh one.  The first line is a header (schema, sweep id, cell count);
    every later line is one completed cell::

        {"schema": 1, "sweep": "<id>", "cells": 4}
        {"key": "<cell key>", "summary": {...}}

    Appends are flushed and fsync'd per record, so a sweep killed at any
    instant loses at most the line being written — and :meth:`load`
    tolerates that torn tail (unparsable or foreign lines are counted in
    ``skipped_lines`` and ignored, never fatal).
    """

    def __init__(self, directory: Union[str, Path], keys: Iterable[str]) -> None:
        self.directory = Path(directory)
        self.keys = frozenset(keys)
        digest = hashlib.sha256(
            "\n".join(sorted(self.keys)).encode("utf-8")
        ).hexdigest()
        self.sweep_id = digest
        self.path = self.directory / f"{digest}.jsonl"
        #: Cells appended through this instance (observability).
        self.recorded = 0
        #: Torn/foreign/stale lines skipped by the last :meth:`load`.
        self.skipped_lines = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunJournal({str(self.path)!r}, cells={len(self.keys)}, "
            f"recorded={self.recorded})"
        )

    def load(self) -> Dict[str, Dict[str, object]]:
        """Completed cells on disk: ``{cell key: summary}``.

        A missing journal, a header from another schema version, and any
        number of corrupt lines all degrade to "fewer resumable cells",
        never to an error — resuming must always be safe.
        """
        self.skipped_lines = 0
        entries: Dict[str, Dict[str, object]] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return entries
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                self.skipped_lines += 1  # torn tail write from a crash
                continue
            if not isinstance(payload, dict):
                self.skipped_lines += 1
                continue
            if "schema" in payload:
                if payload.get("schema") != JOURNAL_SCHEMA_VERSION:
                    # Another build's journal layout: unusable as a whole.
                    self.skipped_lines += 1
                    return {}
                continue
            key = payload.get("key")
            summary = payload.get("summary")
            if (
                not isinstance(key, str)
                or key not in self.keys
                or not isinstance(summary, dict)
            ):
                self.skipped_lines += 1
                continue
            entries[key] = summary
        return entries

    def record(self, key: str, summary: Mapping[str, object]) -> None:
        """Append one completed cell (flushed + fsync'd before returning)."""
        if key not in self.keys:
            raise ValueError(f"cell key {key!r} is not part of this sweep")
        self.directory.mkdir(parents=True, exist_ok=True)
        header: Optional[str] = None
        if not self.path.exists():
            header = json.dumps(
                {
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "sweep": self.sweep_id,
                    "cells": len(self.keys),
                },
                sort_keys=True,
            )
        line = json.dumps({"key": key, "summary": dict(summary)}, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            if header is not None:
                handle.write(header + "\n")
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.recorded += 1

"""Parallel sweep engine with content-addressed on-disk result caching.

The paper's evaluation is a grid — workload profiles x frontend design
points — and scale-out studies live and die by sweep throughput.  This
module makes the grid cell the one unit of parallelism and makes repeat
runs nearly free:

* A **grid cell** (:class:`SweepCell`) is one (profile, design) pair plus
  everything that determines its outcome: core count, trace length and
  trace seeds.  Every cell models the same core (the Table 1 timing of
  :class:`~repro.core.frontend.FrontendConfig`), so workloads and designs
  are the only sweep axes.  Cells are independent given their
  seeds — every workload program and per-core trace is synthesized
  deterministically from the cell's parameters — so fanning cells out across
  a :class:`~concurrent.futures.ProcessPoolExecutor` is bit-identical to
  running them one after another.  This is the repo's only process pool: a
  cell's cores always run one after another inside whichever process runs
  the cell.  The pool picks cells by grid *row* (the designs of one
  workload, which share a memoized driver and its traces): the first wave
  starts one cell per row, and a worker that finishes a cell gets the next
  cell of the same row, so each row's traces are walked and predicted in
  one worker instead of in every worker running one of its designs.
* Every finished cell is summarized to plain JSON data and stored in a
  **content-addressed result cache** (:class:`ResultCache`): the file name is
  a stable hash of the cell's parameters, so an unchanged cell is loaded
  from disk instead of re-simulated, and any parameter change (a different
  seed, one more core, a derived spec) naturally misses.  The cache lives
  under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``).
* Traces themselves are **shared on-disk artifacts** (:class:`TraceStore`):
  a per-core trace is a pure function of (profile, seed, length), so the
  first run packs it into a compact columnar file (see
  :mod:`repro.workloads.packed`) and every later consumer — any design of
  the grid, any future run, any process — loads the columns back instead of
  re-walking the generator.  The store lives under ``$REPRO_TRACE_DIR``
  (default ``<cache dir>/traces``); ``SweepStats.traces_generated`` /
  ``traces_loaded`` make its behavior observable, mirroring the result
  cache's counters.
* Execution is **fault tolerant and crash resumable** (see
  ``docs/resilience.md``).  The pooled scheduler streams every finished
  cell straight into the cache and the sweep's :class:`RunJournal` instead
  of waiting for the whole grid, retries failed cells under a bounded
  deterministic :class:`RetryPolicy`, survives ``BrokenProcessPool`` by
  rebuilding the pool and requeueing only unfinished cells (degrading to
  the serial path after repeated failures), and bounds each attempt's
  wall-clock with a per-cell timeout watchdog.  ``python -m repro sweep
  --resume`` replays a killed sweep's journal and simulates exactly the
  missing cells.
* Both stores follow **one artifact discipline**, implemented once here:
  :func:`content_key` is the one canonical-JSON digest (cell keys, trace
  keys, cache-entry checksums), :func:`atomic_write` the one write path (a
  sibling ``.tmp-*`` file renamed over the target; saved sweep reports and
  bench trajectories use it too), and :func:`quarantine` the one way a
  corrupt cache entry or trace artifact is moved to ``*.corrupt``
  (:class:`CorruptArtifactWarning`) rather than silently missing — or
  crashing mid-``mmap``.  (The run journal is append-only instead.)

:func:`run_sweep` is the high-level entry point; ``repro.api.run_grid`` and
:class:`repro.api.Session` are built on top of it, and
``python -m repro sweep`` exposes it on the command line.  The
:class:`SweepStats` counters (``simulated`` vs ``cache_hits``) make cache
behavior observable: a warm re-run of an unchanged grid reports
``simulated == 0``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import tempfile
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.cmp import ChipMultiprocessor, CMPResult
from repro.core.designs import DesignSpec, design_from_spec, resolve_design
from repro.faultinject import injection_point
from repro.registry import (
    BTB_REGISTRY,
    PREFETCHER_REGISTRY,
    Registry,
    ensure_unique_names,
)
from repro.resilience import CellExecutionError, RetryPolicy, RunJournal
from repro.workloads.cfg import clear_program_memo, workload_program
from repro.workloads.packed import PACKED_TRACE_FORMAT_VERSION, load_packed
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.scenario import BoundScenario, Scenario, resolve_scenario
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import BaseContext

_T = TypeVar("_T")

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "CellExecutionError",
    "CorruptArtifactWarning",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "SweepCell",
    "SweepOutcome",
    "SweepStats",
    "TraceStore",
    "atomic_write",
    "btb_closure",
    "cell_key",
    "clear_workload_memo",
    "cmp_driver",
    "content_key",
    "default_cache_dir",
    "default_journal_dir",
    "default_trace_dir",
    "design_closure",
    "quarantine",
    "run_cells",
    "run_sweep",
    "summarize_result",
    "trace_key",
    "workload_program",
    "write_json",
]

#: Bumped whenever the simulator or the summary layout changes meaning:
#: entries written under another schema are ignored, never misread.
#: (2: scenario cells — summaries carry scenario/core_profiles/per_profile.)
#: (3: the simulation backend joins the cell key and the summary.)
#: (4: the ``batch`` lane-vectorized backend and the CMP lane-grouped
#: dispatch land; cells simulated by earlier builds must re-earn.)
#: (5: checksummed payloads — entries carry an integrity checksum verified
#: on load; earlier entries are plain schema misses, never quarantined.)
CACHE_SCHEMA_VERSION = 5

#: Joins the trace-store key: bumped whenever trace *generation* changes
#: meaning (the walker's algorithm or the packed column semantics), so stale
#: artifacts miss instead of being replayed as current.
TRACE_SCHEMA_VERSION = 1


class CorruptArtifactWarning(UserWarning):
    """A store artifact failed integrity checks and was quarantined.

    Emitted (once per artifact — quarantining moves the file aside) by
    :meth:`ResultCache.get` and :meth:`TraceStore.load` when an entry is
    unreadable, structurally wrong or fails its checksum.  The artifact is
    renamed to ``<name>.corrupt`` so a flaky disk can't cause unbounded
    re-simulation, and the load degrades to a counted miss — never an
    exception.  Absent files and stale schema versions are ordinary misses,
    not corruption.
    """


# --------------------------------------------------------------------------- #
# The artifact discipline: one digest, one atomic write, one quarantine
# --------------------------------------------------------------------------- #

def _jsonable(value: object) -> object:
    """Canonical plain-data form of cell parameters (dataclasses, mappings)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def content_key(payload: Mapping[str, object]) -> str:
    """SHA-256 of ``payload``'s canonical JSON: the one content-key scheme.

    Cell keys, trace keys and the study memo's keys are this digest, and a
    cache entry's checksum is its first 16 hex digits over the summary.
    """
    canonical = json.dumps(
        _jsonable(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _file_sha256(path: Union[str, Path]) -> str:
    """Streaming SHA-256 of a file's bytes (trace artifacts can be large)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write(path: Path, write: Callable[[Path], _T]) -> _T:
    """Fill a sibling ``.tmp-*`` file with ``write(tmp)``, then rename it over ``path``.

    The one write path of the result cache, the trace store, saved sweep
    reports and bench trajectories: a reader of ``path`` only ever sees the
    old file or the complete new one.  When ``write`` (or the rename)
    fails, the temp file is unlinked and ``path`` keeps its old bytes.
    Returns what ``write`` returned.
    """
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    os.close(handle)
    try:
        result = write(Path(tmp_name))
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return result


def write_json(path: Path, document: object, indent: Optional[int] = None) -> Path:
    """:func:`atomic_write` sorted-key JSON (``indent`` adds a final newline)."""
    # json.dumps, not json.dump: dump always builds the pure-Python encoder,
    # whose closures refer to each other and leave a cycle to the collector
    # on every call.  dumps takes the C encoder when indent is None (cache
    # puts).
    text = json.dumps(document, indent=indent, sort_keys=True)
    if indent is not None:
        text += "\n"
    atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))
    return path


def quarantine(what: str, path: Path, reason: str, *companions: Path) -> None:
    """Move a corrupt artifact and its ``companions`` to ``*.corrupt``, and warn.

    Best-effort: a move that fails (the file vanished concurrently) is
    skipped, and the :class:`CorruptArtifactWarning` is issued either way.
    """
    moved: Optional[Path] = None
    for victim in (path, *companions):
        target = victim.with_name(victim.name + ".corrupt")
        with contextlib.suppress(OSError):
            os.replace(victim, target)
            if victim is path:
                moved = target
    where = f" (moved to {moved.name})" if moved is not None else ""
    warnings.warn(
        f"quarantined corrupt {what} {path.name}: {reason}{where}",
        CorruptArtifactWarning,
        stacklevel=4,
    )


# --------------------------------------------------------------------------- #
# Content-addressed result cache
# --------------------------------------------------------------------------- #

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def default_journal_dir() -> Path:
    """Where sweep :class:`RunJournal` files live: ``<cache dir>/journal``."""
    return default_cache_dir() / "journal"


#: Per-process memo of component-factory fingerprints, keyed by the factory
#: object itself so re-registering a name (overwrite=True) re-fingerprints.
_FACTORY_FINGERPRINTS: Dict[object, str] = {}


def _factory_fingerprint(registry: Registry, name: str) -> str:
    """Content fingerprint of a registered component factory.

    The factory's *source* joins the cache key, so swapping or editing a
    registered factory invalidates its cached cells instead of silently
    serving results from the old implementation.  (Classes the factory
    merely calls are not hashed — clear the cache directory after editing
    component internals that the factory source does not mention; in-repo
    simulator changes are covered by :data:`CACHE_SCHEMA_VERSION`.)
    """
    factory = registry.get(name)
    fingerprint = _FACTORY_FINGERPRINTS.get(factory)
    if fingerprint is None:
        try:
            identity = inspect.getsource(factory)
        except (OSError, TypeError):  # e.g. factories defined in a REPL
            module = getattr(factory, "__module__", "?")
            qualname = getattr(factory, "__qualname__", repr(factory))
            identity = f"{module}:{qualname}"
        fingerprint = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]
        _FACTORY_FINGERPRINTS[factory] = fingerprint
    return fingerprint


def design_closure(spec: DesignSpec) -> Dict[str, object]:
    """The design half of a :func:`cell_key` payload.

    The spec's content (component names and every parameter override) plus
    the source fingerprints of the BTB and prefetcher factories it names.
    """
    return {
        "design": _jsonable(spec.to_dict()),
        "btb_factory": _factory_fingerprint(BTB_REGISTRY, spec.btb),
        "prefetcher_factory": _factory_fingerprint(
            PREFETCHER_REGISTRY, spec.prefetcher
        ),
    }


def btb_closure(name: str, params: Mapping[str, object]) -> Dict[str, object]:
    """:func:`design_closure` for a bare registry BTB built with ``params``."""
    return {
        "btb": name,
        "btb_params": _jsonable(params),
        "btb_factory": _factory_fingerprint(BTB_REGISTRY, name),
    }


def cell_key(cell: "SweepCell") -> str:
    """Stable content hash of everything that determines a cell's result.

    Covers the full workload closure — either the workload profile with the
    core count, per-core trace seeds and trace length, or a bound scenario's
    complete per-core assignment (every core's full profile parameters, seed
    and instruction budget) — plus the design spec (component names and
    every parameter override) and the source fingerprints of the registered
    component factories the spec names: the closure of inputs the
    simulation is a pure function of.  Every cell models the same core, so
    the timing config is no cell parameter: changing it changes the
    simulator, which :data:`CACHE_SCHEMA_VERSION` covers.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        **design_closure(cell.spec),
        "cores": cell.cores,
    }
    if isinstance(cell.profile, BoundScenario):
        # The bound assignment is the scenario's full parameter closure:
        # every core's profile, seed and budget are in it verbatim.
        payload["scenario"] = _jsonable(cell.profile)
    else:
        payload["profile"] = _jsonable(cell.profile)
        payload["instructions_per_core"] = cell.instructions_per_core
        payload["trace_seeds"] = [
            cell.trace_seed_base + core for core in range(cell.cores)
        ]
    return content_key(payload)


class ResultCache:
    """On-disk JSON store of cell summaries, one file per content hash.

    Writes go through :func:`atomic_write`, so concurrent sweeps sharing a
    cache directory can only ever observe complete entries.  Entries carry a
    checksum of their summary (``content_key(summary)[:16]``), verified on
    :meth:`get`; an entry that is unreadable, structurally wrong or
    checksum-mismatched is **quarantined** (renamed to ``*.corrupt``, warned
    via :class:`CorruptArtifactWarning`, counted in ``quarantined``) and
    served as a miss.  A missing file or a stale ``schema`` is an ordinary
    miss.  ``hits`` and ``misses`` count :meth:`get` outcomes for
    observability.
    """

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Corrupt entries moved aside by :meth:`get`.
        self.quarantined = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.directory)!r}, hits={self.hits}, misses={self.misses})"

    @classmethod
    def coerce(
        cls, cache: Union[None, bool, str, Path, "ResultCache"]
    ) -> Optional["ResultCache"]:
        """Normalize the user-facing ``cache`` knob.

        ``None``/``False`` disables caching, ``True`` uses the default
        directory, a path uses that directory, and an existing
        :class:`ResultCache` (counters and all) passes through.
        """
        if cache is None or cache is False:
            return None
        if cache is True:
            return cls()
        if isinstance(cache, cls):
            return cache
        return cls(cache)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined += 1
        quarantine("cache entry", path, reason)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Load a cached summary, or ``None`` on miss.

        Absent entries and stale schema versions miss silently; unreadable
        or checksum-mismatched entries are quarantined (see
        :class:`CorruptArtifactWarning`) and then miss.
        """
        path = self._path(key)
        try:
            injection_point("cache:get", label=key)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            # Absent entry — or an unusable store directory, which is not an
            # artifact's fault and must not read as a quarantine.
            self.misses += 1
            return None
        except (OSError, ValueError) as error:
            self._quarantine(path, f"unreadable entry ({type(error).__name__})")
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "entry is not a JSON object")
            self.misses += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            # Another build's entry: a legitimate miss, not corruption.
            self.misses += 1
            return None
        summary = payload.get("summary")
        if (
            not isinstance(summary, dict)
            or payload.get("checksum") != content_key(summary)[:16]
        ):
            self._quarantine(path, "entry failed its checksum")
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, key: str, summary: Mapping[str, object]) -> Path:
        """Store one cell summary atomically; returns the entry's path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        summary = dict(summary)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "summary": summary,
            "checksum": content_key(summary)[:16],
        }
        return write_json(self._path(key), payload)


# --------------------------------------------------------------------------- #
# Content-addressed trace store
# --------------------------------------------------------------------------- #

def default_trace_dir() -> Path:
    """``$REPRO_TRACE_DIR`` when set, else ``<result cache dir>/traces``."""
    override = os.environ.get("REPRO_TRACE_DIR")
    if override:
        return Path(override)
    return default_cache_dir() / "traces"


def trace_key(profile: WorkloadProfile, instructions: int, seed: int) -> str:
    """Stable content hash of everything a trace is a pure function of.

    The synthetic program is deterministic given the profile (its layout
    seed is a profile field), so the profile's full parameter set plus the
    walk seed and requested length close over the trace.  The packed format
    version joins the key so a layout change can never be misread.
    """
    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "format": PACKED_TRACE_FORMAT_VERSION,
        "profile": _jsonable(profile),
        "instructions": instructions,
        "seed": seed,
    }
    return content_key(payload)


class TraceStore:
    """On-disk store of packed traces, one columnar file per content hash.

    The (profile x design) grid generates each per-core trace exactly once:
    every design sharing a profile — and every future run, in any process —
    maps the artifact back in through :meth:`load` instead of re-walking the
    generator.  Writes go through :func:`atomic_write`, so sweeps sharing a
    store can only observe complete artifacts.  Each artifact gets a
    ``<name>.sum`` sidecar with its SHA-256, verified before the columns are
    mapped; a truncated, bit-flipped or otherwise unreadable artifact is
    **quarantined** to ``*.corrupt`` (with its sidecar), warned via
    :class:`CorruptArtifactWarning`, counted in ``quarantined`` and served
    as a miss — never a crash mid-``mmap``.  Artifacts without a sidecar
    (written by earlier builds) get structural checks only.
    ``hits``/``misses`` count :meth:`load` outcomes for observability.
    """

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_trace_dir()
        self.hits = 0
        self.misses = 0
        #: Corrupt artifacts moved aside by :meth:`load`.
        self.quarantined = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStore({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )

    @classmethod
    def coerce(
        cls, store: Union[None, bool, str, Path, "TraceStore"]
    ) -> Optional["TraceStore"]:
        """Normalize the user-facing ``trace_store`` knob (the ``cache`` idiom):
        ``None``/``False`` disables, ``True`` uses the default directory, a
        path uses that directory, an existing store passes through."""
        if store is None or store is False:
            return None
        if store is True:
            return cls()
        if isinstance(store, cls):
            return store
        return cls(store)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.trace"

    @staticmethod
    def _checksum_path(path: Path) -> Path:
        return path.with_name(path.name + ".sum")

    def path_for(self, profile: WorkloadProfile, instructions: int, seed: int) -> Path:
        """The artifact path for (profile, instructions, seed).

        Purely computed — the artifact may or may not exist yet.  For
        callers that inspect an artifact on disk (its size, its header)
        without loading it as a trace; the sweep itself only calls
        :meth:`load`.
        """
        return self._path(trace_key(profile, instructions, seed))

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined += 1
        quarantine("trace artifact", path, reason, self._checksum_path(path))

    def load(
        self,
        profile: WorkloadProfile,
        instructions: int,
        seed: int,
        name: Optional[str] = None,
    ) -> Optional[Trace]:
        """Map a stored trace back in, or ``None`` on miss.

        The artifact's ``.sum`` sidecar (when present) is verified before
        the columns are mapped; a checksum mismatch or an unreadable
        artifact is quarantined (see :class:`CorruptArtifactWarning`) and
        served as a miss.  ``name`` overrides the stored trace name
        (per-core names differ even when the underlying artifact is shared
        across runs).
        """
        key = trace_key(profile, instructions, seed)
        path = self._path(key)
        try:
            injection_point("trace:load", label=key)
            expected: Optional[str] = None
            try:
                expected = self._checksum_path(path).read_text(
                    encoding="utf-8"
                ).strip()
            except FileNotFoundError:
                expected = None  # legacy artifact predating checksums
            if expected is not None and _file_sha256(path) != expected:
                raise ValueError("artifact does not match its stored checksum")
            packed = load_packed(path)
        except (FileNotFoundError, NotADirectoryError):
            # Absent artifact — or an unusable store directory, which is not
            # an artifact's fault and must not read as a quarantine.
            self.misses += 1
            return None
        except (OSError, ValueError) as error:
            self._quarantine(path, str(error) or type(error).__name__)
            self.misses += 1
            return None
        self.hits += 1
        return Trace.from_packed(packed, name=name)

    def put(
        self,
        profile: WorkloadProfile,
        instructions: int,
        seed: int,
        trace: Trace,
    ) -> Path:
        """Store one trace atomically; returns the artifact's path.

        The checksum sidecar is written (atomically) after the artifact, so
        a crash between the two leaves a loadable legacy-style artifact,
        never a mismatched pair.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(trace_key(profile, instructions, seed))

        def save(tmp: Path) -> str:
            trace.packed.save(tmp)
            return _file_sha256(tmp)

        digest = atomic_write(path, save)
        atomic_write(
            self._checksum_path(path),
            lambda tmp: tmp.write_text(digest + "\n", encoding="utf-8"),
        )
        return path

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """Size-bounded LRU sweep: evict cold artifacts until the store fits.

        Artifacts are content-addressed and never expire on their own, so a
        long-lived shared directory only ever grows; ``prune`` deletes the
        least-recently-used ``.trace`` files (by ``max(atime, mtime)`` —
        atime tracks use where the filesystem records it, mtime is the
        write-time floor on ``noatime`` mounts) until the total size is at
        most ``max_bytes``.  Checksum sidecars ride along with their
        artifact (they neither count toward the size nor survive it).
        Returns ``(files removed, bytes freed)``.  Processes currently
        mapping a removed artifact are unaffected (the page cache holds the
        inode until the last mapping drops).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = []
        total = 0
        try:
            candidates = list(self.directory.glob("*.trace"))
        except OSError:
            return (0, 0)
        for path in candidates:
            if path.name.startswith(".tmp-"):
                continue  # an in-flight put(); its os.replace must not race us
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently removed
            entries.append((max(stat.st_atime, stat.st_mtime), stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda entry: entry[0])
        removed = 0
        freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                if path.exists():
                    continue  # undeletable (permissions?); its bytes remain
                total -= size  # a concurrent prune freed it; don't over-evict
                continue
            with contextlib.suppress(OSError):
                self._checksum_path(path).unlink()
            total -= size
            removed += 1
            freed += size
        return (removed, freed)


# --------------------------------------------------------------------------- #
# Grid cells
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SweepCell:
    """One (workload x design) grid cell with its full parameter closure.

    ``profile`` is either a homogeneous :class:`WorkloadProfile` or a
    :class:`~repro.workloads.scenario.BoundScenario` (a heterogeneous
    per-core assignment); both are frozen, hashable and carry a ``name``.
    For scenario cells ``cores`` is the assignment's length,
    ``instructions_per_core`` its widest core's budget (the per-core truth
    lives in the assignment itself, which is what :func:`cell_key` hashes).

    Cell-key closure invariant (staticcheck R003): every field that can
    change a cell's outcome is folded into :func:`cell_key` — a field this
    dataclass grows but the key omits would let two *different*
    computations share one cache entry.  Adding a field therefore means
    extending :func:`cell_key` in the same change, and R003 fails the
    build until it is.
    """

    profile: Union[WorkloadProfile, BoundScenario]
    spec: DesignSpec
    cores: int
    instructions_per_core: int
    trace_seed_base: int = 100

    def key(self) -> str:
        return cell_key(self)


@dataclass
class SweepStats:
    """How a sweep's cells were satisfied (the cache observability hook).

    ``simulated``/``cache_hits``/``resumed`` count cells (``resumed`` ones
    were replayed from a crashed run's :class:`RunJournal` instead of
    re-simulating); ``traces_generated`` / ``traces_loaded`` count how the
    simulated cells' per-core traces were obtained (generator walk vs
    :class:`TraceStore` artifact).  A warm trace-store run reports
    ``traces_generated == 0`` — CI pins this like ``--expect-cached`` pins
    ``simulated == 0``.

    The resilience counters make fault handling observable: ``retried``
    counts cell re-executions (after a failure, a pool break or a timeout),
    ``timed_out`` counts attempts the per-cell watchdog expired,
    ``pool_rebuilds`` counts :class:`~concurrent.futures.process.\
BrokenProcessPool` / stuck-worker recoveries, and ``quarantined`` counts
    corrupt cache/trace artifacts moved aside during the sweep.
    """

    simulated: int = 0
    cache_hits: int = 0
    traces_generated: int = 0
    traces_loaded: int = 0
    retried: int = 0
    timed_out: int = 0
    quarantined: int = 0
    resumed: int = 0
    pool_rebuilds: int = 0

    @property
    def cells(self) -> int:
        return self.simulated + self.cache_hits + self.resumed

    def to_dict(self) -> Dict[str, int]:
        """Every counter (plus the derived ``cells`` total) as plain data.

        The single serialization used by the CLI's ``--json`` output, the
        saved sweep-report files (:func:`repro.api.save_reports`) and the
        report bundle's resilience section, so the counter vocabulary cannot
        drift between surfaces.
        """
        payload = {
            field_.name: getattr(self, field_.name)
            for field_ in dataclasses.fields(self)
        }
        payload["cells"] = self.cells
        return payload


@dataclass
class SweepOutcome:
    """Result of :func:`run_sweep`: per-cell summaries plus satisfaction stats.

    ``summaries`` is keyed by (workload name, design name), where a workload
    is a profile or a scenario; ``profiles`` and ``scenarios`` list the two
    kinds separately, ``workloads`` joins them in grid order.
    """

    profiles: List[str]
    designs: List[str]
    scale: float
    cells: List[SweepCell]
    summaries: Dict[Tuple[str, str], Dict[str, object]]
    stats: SweepStats = field(default_factory=SweepStats)
    scenarios: List[str] = field(default_factory=list)

    @property
    def workloads(self) -> List[str]:
        """Every grid row: the profiles, then the scenarios."""
        return list(self.profiles) + list(self.scenarios)

    def summary(self, profile: str, design: str) -> Dict[str, object]:
        return self.summaries[(profile, design)]


# --------------------------------------------------------------------------- #
# Cell execution (runs in the parent or in pool workers)
# --------------------------------------------------------------------------- #

#: Per-process memo of CMP drivers (which cache their per-core traces), keyed
#: by everything that shapes the traces; designs of the same workload reuse
#: it.  (The synthesized-program memo lives with the generator, in
#: :func:`repro.workloads.cfg.workload_program`, so heterogeneous CMP cores
#: share it too.)  Traces are the heavy part (cores x instructions_per_core
#: fetch records per entry), so this memo is a small LRU rather than
#: unbounded.
_RowKey = Tuple[object, ...]  # a memoized driver's key; its cells are a grid row
_CMP_MEMO: "OrderedDict[_RowKey, ChipMultiprocessor]" = OrderedDict()
_CMP_MEMO_MAX_ENTRIES = 4


def clear_workload_memo() -> None:
    """Drop the per-process program/trace memos (frees their memory)."""
    clear_program_memo()
    _CMP_MEMO.clear()


def _driver_key(
    profile: Union[WorkloadProfile, BoundScenario],
    cores: int,
    instructions_per_core: int,
    trace_seed_base: int,
) -> _RowKey:
    """What :func:`cmp_driver` memoizes a driver (and its traces) under.

    The cells sharing this key are one grid *row*: every design of a
    workload at one chip shape, all run on the same driver and traces.  The
    pooled scheduler groups cells by it (see :func:`_next_row`).
    """
    return (profile, cores, instructions_per_core, trace_seed_base)


def cmp_driver(
    profile: Union[WorkloadProfile, BoundScenario],
    cores: int,
    instructions_per_core: int,
    trace_seed_base: int = 100,
    trace_store: Optional[TraceStore] = None,
) -> ChipMultiprocessor:
    """The per-process memoized CMP driver for one workload configuration.

    Every cell of one grid row runs on the driver this returns, so a row's
    designs share one trace set per process.  ``profile`` may be a
    :class:`~repro.workloads.scenario.BoundScenario`, in which case the
    driver runs its heterogeneous per-core assignment.  A ``trace_store``
    attaches to the memoized driver: traces it has not yet materialized are
    loaded from (or saved to) the store.
    """
    memo_key = _driver_key(profile, cores, instructions_per_core, trace_seed_base)
    cmp_model = _CMP_MEMO.get(memo_key)
    if cmp_model is None:
        if isinstance(profile, BoundScenario):
            cmp_model = ChipMultiprocessor(trace_store=trace_store, scenario=profile)
        else:
            cmp_model = ChipMultiprocessor(
                workload_program(profile),
                cores=cores,
                instructions_per_core=instructions_per_core,
                trace_seed_base=trace_seed_base,
                trace_store=trace_store,
            )
        _CMP_MEMO[memo_key] = cmp_model
        while len(_CMP_MEMO) > _CMP_MEMO_MAX_ENTRIES:
            _CMP_MEMO.popitem(last=False)
    else:
        _CMP_MEMO.move_to_end(memo_key)
        # The caller's knob always wins: attaching a store enables loads for
        # traces the driver has not yet materialized, and passing None
        # detaches a previously attached one (the documented "generate
        # in-process" default must not silently keep using an old store).
        # Traces the driver already holds stay on its heap either way.
        cmp_model.trace_store = trace_store
    return cmp_model


def _cmp_for_cell(
    cell: SweepCell, trace_store: Optional[TraceStore] = None
) -> ChipMultiprocessor:
    return cmp_driver(
        cell.profile,
        cell.cores,
        cell.instructions_per_core,
        cell.trace_seed_base,
        trace_store=trace_store,
    )


def summarize_result(
    result: CMPResult, spec: DesignSpec, cores: int
) -> Dict[str, object]:
    """Flatten one CMP result into plain JSON-compatible data.

    This is the cacheable unit: everything in it is baseline-independent
    (speedups are derived later, when a report picks its reference design).
    Its ``"backend"`` entry always names ``scalar``, the loop every cell
    runs; it stays in the layout because saved reports, the golden
    summaries and the benchmark's digests hash it.
    """
    summary: Dict[str, object] = {
        "design": result.design,
        "label": spec.label,
        "workload": result.workload,
        "scenario": result.scenario,
        "cores": cores,
        "backend": "scalar",
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "btb_mpki": result.btb_mpki,
        "l1i_mpki": result.l1i_mpki,
        "core_ipc": [core.ipc for core in result.core_results],
        "core_profiles": list(result.core_profiles),
        "per_profile": result.per_profile(),
    }
    if result.area is not None:
        summary["area_mm2"] = result.area.total_mm2
        summary["area_fraction_of_core"] = result.area.fraction_of_core
        summary["area_components_mm2"] = dict(result.area.components_mm2)
    return summary


def _cell_label(cell: SweepCell) -> str:
    """Human identity of a cell for errors and fault-injection matching."""
    return f"{cell.profile.name}/{cell.spec.name}[seed_base={cell.trace_seed_base}]"


def _cell_failure(
    cell: SweepCell, error: Optional[BaseException]
) -> CellExecutionError:
    """Wrap a cell's terminal failure so the raised error names the cell."""
    if isinstance(error, CellExecutionError):
        return error
    detail = (
        f"{type(error).__name__}: {error}" if error is not None else "unknown error"
    )
    return CellExecutionError(f"sweep cell {_cell_label(cell)} failed: {detail}")


#: (summary, traces generated, loaded, artifacts quarantined) — the
#: per-cell deltas a scheduler folds into :class:`SweepStats`.
_CellOutcome = Tuple[Dict[str, object], int, int, int]


def _simulate_cell_counted(
    cell: SweepCell,
    trace_store: Optional[TraceStore],
    attempt: int = 0,
) -> _CellOutcome:
    """Run one cell; returns (summary, traces generated, loaded, quarantined).

    The trace counters are deltas over this run, so the scheduler can fold
    them into :class:`SweepStats` even when the memoized driver already holds
    its traces (in which case every delta is zero).  ``attempt`` is the
    scheduler's retry counter for this cell — it parameterizes the
    ``"cell:simulate"`` fault-injection point so "fail N times, then
    succeed" plans behave deterministically across pool workers.
    """
    injection_point("cell:simulate", label=_cell_label(cell), attempt=attempt)
    cmp_model = _cmp_for_cell(cell, trace_store=trace_store)
    generated_before = cmp_model.traces_generated
    loaded_before = cmp_model.traces_loaded
    quarantined_before = trace_store.quarantined if trace_store is not None else 0
    result = cmp_model.run_design(cell.spec)
    summary = summarize_result(result, cell.spec, cell.cores)
    return (
        summary,
        cmp_model.traces_generated - generated_before,
        cmp_model.traces_loaded - loaded_before,
        (trace_store.quarantined - quarantined_before)
        if trace_store is not None else 0,
    )


def _cell_job(job: Tuple[SweepCell, Optional[str], int]) -> _CellOutcome:
    """Pool-worker entry: rebuilds the trace store from its directory.

    Workers receive the artifact *directory*, never trace objects: each
    worker lazily mmaps the artifacts it needs, so all workers share one
    page-cache copy of every trace instead of pickling heap copies around.
    The job carries the cell's attempt number (for deterministic fault
    injection), and any worker-side failure is wrapped so the parent's
    exception names the cell instead of an anonymous worker.
    """
    cell, trace_dir, attempt = job
    store = TraceStore(trace_dir) if trace_dir is not None else None
    try:
        return _simulate_cell_counted(cell, store, attempt=attempt)
    except CellExecutionError:
        raise
    except Exception as error:
        raise CellExecutionError(
            f"sweep cell {_cell_label(cell)} failed in a worker: "
            f"{type(error).__name__}: {error}"
        ) from error


# --------------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------------- #

def _fork_context() -> Optional["BaseContext"]:
    """Prefer fork so pool workers inherit user-registered components."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return None


def _now() -> float:
    """Scheduler wall clock — timeout bookkeeping only, never in results."""
    # Deadline arithmetic must not jump with NTP; results never see it.
    return time.monotonic()  # staticcheck: allow[R002]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are stuck or already dead.

    ``shutdown()`` alone joins worker processes, which never returns while
    a worker hangs; terminating the processes first makes teardown prompt.
    (``_processes`` is private executor state — degrade to a plain shutdown
    if a future stdlib renames it.)
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(Exception):
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _attempt_cell(
    cell: SweepCell,
    traces: Optional[TraceStore],
    stats: SweepStats,
    policy: RetryPolicy,
    first_attempt: int = 0,
) -> _CellOutcome:
    """Run one cell in-process under the retry policy (the serial path).

    ``first_attempt`` carries retries already charged elsewhere (the pooled
    scheduler hands half-retried cells here when it degrades), so the total
    attempt budget is shared, not reset.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(first_attempt, policy.retries + 1):
        if attempt > first_attempt:
            stats.retried += 1
            time.sleep(policy.delay(attempt - 1))
        try:
            return _simulate_cell_counted(cell, traces, attempt=attempt)
        except Exception as error:
            last_error = error
    raise _cell_failure(cell, last_error)


def _next_row(
    remaining: Mapping[_RowKey, Deque[int]],
    preferred: Optional[_RowKey],
    busy: AbstractSet[_RowKey],
    started: AbstractSet[_RowKey],
) -> _RowKey:
    """The grid row whose next queued cell a free pool slot runs.

    ``remaining`` maps each row (in cell order) to its queued cells,
    ``preferred`` is the row of the cell the slot just finished (None for a
    slot of a fresh pool), ``busy`` holds the rows with a cell in flight and
    ``started`` the rows this pool has run a cell of.  A slot keeps its row
    while the row has cells queued, because its worker already holds the
    row's driver, traces and branch columns.  Otherwise it takes the first
    row not started yet, then the first with no cell in flight, and only
    last one in flight — whose traces another worker is walking right now.
    At least one row must have a cell queued.
    """
    if preferred is not None and remaining.get(preferred):
        return preferred
    candidates = [row for row, queued in remaining.items() if queued]
    for row in candidates:
        if row not in started:
            return row
    for row in candidates:
        if row not in busy:
            return row
    return candidates[0]


def _run_pending_pooled(
    cells: Sequence[SweepCell],
    pending: Sequence[int],
    traces: Optional[TraceStore],
    workers: int,
    stats: SweepStats,
    policy: RetryPolicy,
    context: "BaseContext",
    complete: Callable[[int, _CellOutcome], None],
) -> None:
    """Fan pending cells across a process pool, streaming completions.

    Per-cell futures instead of ``pool.map``: every finished cell flows
    through ``complete`` (cache + journal) the moment it lands, a failed
    cell is retried under ``policy`` without disturbing its siblings, a
    broken pool is rebuilt with only the unfinished cells requeued, and a
    cell attempt outliving ``policy.cell_timeout`` gets its stuck worker
    terminated.  After ``policy.max_pool_rebuilds`` recoveries the
    remaining cells degrade to the in-process serial path — a sweep never
    fails merely because pooling does.

    Each submission is picked by grid row (:func:`_next_row`).
    Completions are handled in cell order, so the picks do not depend on
    which future the pool reports first; a rebuilt pool starts with no
    row preferences, since its workers hold no row.
    """
    trace_dir = str(traces.directory) if traces is not None else None
    width = min(workers, len(pending))
    attempts: Dict[int, int] = {index: 0 for index in pending}
    row_of: Dict[int, _RowKey] = {}
    remaining: Dict[_RowKey, Deque[int]] = {}
    for index in pending:
        cell = cells[index]
        row_of[index] = _driver_key(
            cell.profile, cell.cores, cell.instructions_per_core, cell.trace_seed_base
        )
        remaining.setdefault(row_of[index], deque()).append(index)
    started: Set[_RowKey] = set()
    freed: Deque[_RowKey] = deque()  # rows of the slots freed since the last fill
    in_flight: Dict[Future[_CellOutcome], int] = {}
    deadlines: Dict[Future[_CellOutcome], float] = {}
    rebuilds = 0
    pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
        max_workers=width, mp_context=context
    )

    def fail_or_requeue(
        index: int, error: BaseException, timed_out: bool = False
    ) -> None:
        """Charge one failed/victim attempt; requeue within budget or raise."""
        if timed_out:
            stats.timed_out += 1
        attempts[index] += 1
        if attempts[index] > policy.retries:
            raise _cell_failure(cells[index], error)
        stats.retried += 1
        remaining[row_of[index]].append(index)

    try:
        while in_flight or any(remaining.values()):
            broken = False
            while (
                len(in_flight) < width and pool is not None
                and any(remaining.values())
            ):
                row = _next_row(
                    remaining,
                    freed.popleft() if freed else None,
                    {row_of[index] for index in in_flight.values()},
                    started,
                )
                index = remaining[row].popleft()
                started.add(row)
                if attempts[index] > 0:
                    time.sleep(policy.delay(attempts[index] - 1))
                try:
                    future = pool.submit(
                        _cell_job, (cells[index], trace_dir, attempts[index])
                    )
                except BrokenProcessPool:
                    remaining[row].appendleft(index)
                    broken = True
                    break
                in_flight[future] = index
                if policy.cell_timeout is not None:
                    deadlines[future] = _now() + policy.cell_timeout

            expired: List[Future[_CellOutcome]] = []
            if in_flight and not broken:
                timeout = (
                    max(0.0, min(deadlines.values()) - _now())
                    if deadlines else None
                )
                done, _ = wait(
                    list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in sorted(done, key=in_flight.__getitem__):
                    index = in_flight.pop(future)
                    deadlines.pop(future, None)
                    freed.append(row_of[index])
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as error:
                        broken = True
                        fail_or_requeue(index, error)
                    except Exception as error:
                        fail_or_requeue(index, error)
                    else:
                        complete(index, outcome)
                if not done and deadlines:
                    now = _now()
                    expired = [
                        future for future, deadline in deadlines.items()
                        if deadline <= now
                    ]

            if broken or expired:
                # Recovery: harvest results that did land, charge every
                # other in-flight cell one victim attempt, then rebuild —
                # or, past the rebuild budget, degrade to the serial path.
                rebuilds += 1
                stats.pool_rebuilds += 1
                expired_set = set(expired)
                for future, index in list(in_flight.items()):
                    if future.done() and not future.cancelled():
                        try:
                            outcome = future.result()
                        except Exception as error:
                            fail_or_requeue(index, error)
                        else:
                            complete(index, outcome)
                        continue
                    if future in expired_set:
                        fail_or_requeue(
                            index,
                            TimeoutError(
                                f"cell attempt exceeded the per-cell timeout "
                                f"of {policy.cell_timeout}s"
                            ),
                            timed_out=True,
                        )
                    else:
                        fail_or_requeue(
                            index, BrokenProcessPool("pool worker died mid-cell")
                        )
                in_flight.clear()
                deadlines.clear()
                started.clear()
                freed.clear()
                if pool is not None:
                    _terminate_pool(pool)
                    pool = None
                if rebuilds > policy.max_pool_rebuilds:
                    for queued in remaining.values():
                        while queued:
                            index = queued.popleft()
                            complete(index, _attempt_cell(
                                cells[index], traces, stats, policy,
                                first_attempt=attempts[index],
                            ))
                    return
                pool = ProcessPoolExecutor(max_workers=width, mp_context=context)
    finally:
        if pool is not None:
            _terminate_pool(pool)


def _build_pending_specs(
    cells: Sequence[SweepCell], pending: Sequence[int]
) -> None:
    """Build each distinct spec of the pending cells once, then drop it.

    A spec whose components cannot be built (a bad parameter) would
    otherwise fail each of its cells through the whole retry budget; here
    it fails once, before any cell simulates, as a :class:`ValueError`
    naming the design.  Each build uses the first core's program of the
    first pending cell with that spec, from the program memo the cell
    reads anyway, and touches no CMP memo and no trace.
    """
    built: List[DesignSpec] = []
    for index in pending:
        cell = cells[index]
        if cell.spec in built:
            continue
        built.append(cell.spec)
        profile = (
            cell.profile.assignments[0].profile
            if isinstance(cell.profile, BoundScenario) else cell.profile
        )
        program = workload_program(profile)
        try:
            design_from_spec(cell.spec, program)
        except Exception as error:  # any component's own validation error
            raise ValueError(
                f"design {cell.spec.name!r} cannot be built: "
                f"{type(error).__name__}: {error}"
            ) from error


def _create_store_dirs(
    store: Optional[ResultCache], traces: Optional[TraceStore]
) -> None:
    """Create the result-cache and trace-store directories before any cell.

    A store path that names a file (or sits under one) would otherwise
    surface mid-sweep: a cell that already simulated dies on its first
    ``put``, and a trace store fails every attempt of a cell that already
    walked its traces.  Here it is one :class:`ValueError` naming the store
    and the path.
    """
    directories: List[Tuple[str, Path]] = []
    if store is not None:
        directories.append(("result cache", store.directory))
    if traces is not None:
        directories.append(("trace store", traces.directory))
    for what, directory in directories:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ValueError(
                f"{what} directory {str(directory)!r} cannot be created: "
                f"{error.strerror or type(error).__name__}"
            ) from error


def _coerce_journal(
    journal: Union[None, bool, str, Path, RunJournal],
    keys: Sequence[str],
) -> Optional[RunJournal]:
    """Normalize the user-facing ``journal`` knob (the ``cache`` idiom).

    ``None``/``False`` disables journaling, ``True`` uses the default
    directory (:func:`default_journal_dir`), a path uses that directory,
    and an existing :class:`RunJournal` passes through — provided it was
    built for exactly this sweep's cell-key set.
    """
    if journal is None or journal is False:
        return None
    if isinstance(journal, RunJournal):
        if journal.keys != frozenset(keys):
            raise ValueError(
                "journal was built for a different cell-key set than this sweep"
            )
        return journal
    if journal is True:
        return RunJournal(default_journal_dir(), keys)
    return RunJournal(journal, keys)


def run_cells(
    cells: Sequence[SweepCell],
    workers: Optional[int] = None,
    cache: Union[None, bool, str, Path, ResultCache] = None,
    trace_store: Union[None, bool, str, Path, TraceStore] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Union[None, bool, str, Path, RunJournal] = None,
    resume: bool = False,
) -> Tuple[List[Dict[str, object]], SweepStats]:
    """Satisfy every cell, from the cache when possible, else by simulating.

    Cache misses follow one rule: with ``workers > 1`` and more than one
    pending cell they fan out across a process pool of
    ``min(workers, pending cells)`` processes, one cell per task; otherwise
    they run one after another in this process, in cell order.  Inside a
    cell the cores always run serially, so the pool is never nested.  The
    pool picks each next cell by grid row (the cells sharing one
    :func:`cmp_driver`): its first wave starts one cell per row, and a slot
    freed by a finished cell runs that row's next cell, because its worker
    already holds the row's traces; a slot whose row has nothing queued
    takes a row not started yet, then one with no cell in flight, and only
    last one in flight.  Both paths are bit-identical (cells are pure
    functions of their parameters), so the choice only affects wall-clock.

    Execution is resilient (``docs/resilience.md``): every path runs under
    ``policy`` (default :class:`RetryPolicy`) — bounded retry with
    deterministic backoff, optional per-cell timeouts, pool rebuilds on
    ``BrokenProcessPool`` and graceful degradation to serial execution —
    and completed cells stream into the cache and the ``journal`` as they
    land.  ``journal`` (the ``cache``-style knob) appends each fresh
    simulation to a :class:`RunJournal` keyed by this sweep's cell-key set;
    with ``resume=True`` the journal of a previous (killed) run pre-fills
    its completed cells, counted in ``SweepStats.resumed`` and re-``put``
    into the cache, so only the missing cells simulate.  A cell that fails
    past its retry budget raises :class:`CellExecutionError` naming the
    cell; cells already completed keep their cache/journal entries, so the
    rerun resumes.  A design that cannot be built, or a cache or trace-store
    directory that cannot be created, raises :class:`ValueError` before any
    cell simulates.  Returns the summaries in cell order plus the
    :class:`SweepStats` of this run.
    """
    if workers is not None and workers <= 0:
        raise ValueError("workers must be positive when given")
    if policy is None:
        policy = RetryPolicy()
    store = ResultCache.coerce(cache)
    traces = TraceStore.coerce(trace_store)
    keys = [cell.key() for cell in cells]
    run_journal = _coerce_journal(journal, keys)
    journaled: Dict[str, Dict[str, object]] = {}
    if resume and run_journal is not None:
        journaled = run_journal.load()
    stats = SweepStats()
    summaries: List[Optional[Dict[str, object]]] = [None] * len(cells)

    cache_quarantined_before = store.quarantined if store is not None else 0
    pending: List[int] = []
    for index in range(len(cells)):
        cached = store.get(keys[index]) if store is not None else None
        if cached is not None:
            summaries[index] = cached
            stats.cache_hits += 1
            continue
        resumed = journaled.get(keys[index])
        if resumed is not None:
            # A journaled summary from the killed run: as trustworthy as a
            # cache entry (it was recorded after the cell completed).  Put
            # it back into the cache so the next run hits the fast path.
            summaries[index] = resumed
            stats.resumed += 1
            if store is not None:
                store.put(keys[index], resumed)
            continue
        pending.append(index)
    if store is not None:
        stats.quarantined += store.quarantined - cache_quarantined_before
    if pending:
        _create_store_dirs(store, traces)
        _build_pending_specs(cells, pending)

    def complete(index: int, outcome: _CellOutcome) -> None:
        """Stream one fresh simulation into stats, cache and journal."""
        summary, generated, loaded, quarantined = outcome
        summaries[index] = summary
        stats.simulated += 1
        stats.traces_generated += generated
        stats.traces_loaded += loaded
        stats.quarantined += quarantined
        if store is not None:
            store.put(keys[index], summary)
        if run_journal is not None:
            run_journal.record(keys[index], summary)

    context = _fork_context()
    if workers is not None and workers > 1 and len(pending) > 1 and context is not None:
        _run_pending_pooled(
            cells, pending, traces, workers, stats, policy, context, complete
        )
    else:
        for index in pending:
            complete(index, _attempt_cell(cells[index], traces, stats, policy))

    # Every index was satisfied above (cache hit, journal resume or fresh
    # simulation); the comprehension narrows List[Optional[...]] to the
    # declared return type.
    completed = [summary for summary in summaries if summary is not None]
    if len(completed) != len(cells):  # pragma: no cover - defensive
        raise RuntimeError("sweep left a cell unsatisfied")
    return completed, stats


def run_sweep(
    profiles: Iterable[Union[str, WorkloadProfile]],
    designs: Sequence[Union[str, DesignSpec]],
    scale: float = 1.0,
    cores: int = 16,
    instructions_per_core: Optional[int] = None,
    trace_seed_base: int = 100,
    workers: Optional[int] = None,
    cache: Union[None, bool, str, Path, ResultCache] = None,
    trace_store: Union[None, bool, str, Path, TraceStore] = None,
    scenarios: Optional[Iterable[Union[str, Scenario, BoundScenario]]] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Union[None, bool, str, Path, RunJournal] = None,
    resume: bool = False,
) -> SweepOutcome:
    """Run the full (workload x design) grid through the cell scheduler.

    ``profiles`` and ``designs`` may mix names and instances; ``scale``
    shrinks every profile (as :class:`repro.api.Session` does).  When
    ``instructions_per_core`` is omitted each profile uses its own
    recommended trace length.  ``scenarios`` adds heterogeneous rows to the
    grid — catalog names, :class:`~repro.workloads.scenario.Scenario` specs
    (bound here against ``cores``/``scale``/``instructions_per_core``/
    ``trace_seed_base``) or pre-bound assignments; ``profiles`` may be empty
    when scenarios are given.  ``trace_store`` shares per-core traces as
    on-disk artifacts across designs, runs, processes *and scenarios*: any
    two grid rows assigning the same (profile, seed, length) to a core share
    one artifact (see :class:`TraceStore`).

    ``policy``, ``journal`` and ``resume`` are the resilience knobs,
    forwarded to :func:`run_cells`: bounded deterministic retry / per-cell
    timeouts / pool-rebuild recovery, append-only journaling of completed
    cells, and crash resume from a previous run's journal.

    A chip shape no cell can simulate — ``cores < 1``, or an
    ``instructions_per_core`` given below 1 — raises :class:`ValueError`
    before any cell is built; :meth:`repro.api.Session.run` runs through
    here too, so both entry points reject the same knobs.
    """
    # Check the chip shape up front: a bad knob must fail before any cell
    # simulates (or, with caching disabled, before a deep stack of drivers
    # has been built around it).
    if cores < 1:
        raise ValueError(f"cores must be at least 1 (got {cores})")
    if instructions_per_core is not None and instructions_per_core < 1:
        raise ValueError(
            f"instructions_per_core must be at least 1 (got {instructions_per_core})"
        )
    resolved_profiles: List[WorkloadProfile] = []
    for profile in profiles:
        if isinstance(profile, str):
            profile = get_profile(profile)
        if scale != 1.0:
            profile = profile.scaled(scale)
        resolved_profiles.append(profile)
    bound_scenarios: List[BoundScenario] = []
    for scenario in scenarios or ():
        if not isinstance(scenario, BoundScenario):
            scenario = resolve_scenario(scenario).bind(
                cores=cores,
                scale=scale,
                instructions_per_core=instructions_per_core,
                trace_seed_base=trace_seed_base,
            )
        bound_scenarios.append(scenario)
    if not resolved_profiles and not bound_scenarios:
        raise ValueError("no profiles or scenarios given")
    specs = [resolve_design(design) for design in designs]
    if not specs:
        raise ValueError("no designs given")
    profile_names = [profile.name for profile in resolved_profiles]
    scenario_names = [scenario.name for scenario in bound_scenarios]
    design_names = [spec.name for spec in specs]
    ensure_unique_names(
        "profile", profile_names,
        hint="dataclasses.replace(profile, name=...) renames a profile",
    )
    ensure_unique_names(
        "scenario", scenario_names,
        hint="dataclasses.replace(scenario, name=...) renames a scenario",
    )
    overlap = sorted(set(profile_names) & set(scenario_names))
    if overlap:
        # Profiles and scenarios share the summaries keyspace.
        raise ValueError(
            f"scenario name(s) collide with profile name(s): {', '.join(overlap)}"
        )
    ensure_unique_names("design", design_names)

    cells = [
        SweepCell(
            profile=profile,
            spec=spec,
            cores=cores,
            instructions_per_core=(
                profile.recommended_trace_instructions
                if instructions_per_core is None else instructions_per_core
            ),
            trace_seed_base=trace_seed_base,
        )
        for profile in resolved_profiles
        for spec in specs
    ]
    cells.extend(
        SweepCell(
            profile=scenario,
            spec=spec,
            cores=scenario.cores,
            instructions_per_core=scenario.instructions_per_core,
            trace_seed_base=trace_seed_base,
        )
        for scenario in bound_scenarios
        for spec in specs
    )
    summaries, stats = run_cells(
        cells,
        workers=workers,
        cache=cache,
        trace_store=trace_store,
        policy=policy,
        journal=journal,
        resume=resume,
    )
    mapping = {
        (cell.profile.name, cell.spec.name): summary
        for cell, summary in zip(cells, summaries, strict=True)
    }
    return SweepOutcome(
        profiles=profile_names,
        designs=design_names,
        scale=scale,
        cells=cells,
        summaries=mapping,
        stats=stats,
        scenarios=scenario_names,
    )

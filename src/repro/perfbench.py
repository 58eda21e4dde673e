"""Kernel hot-loop benchmark harness: the tracked perf trajectory.

Performance PRs need a recorded baseline to argue against, so this module
measures the simulation kernel end to end — trace generation, the columnar
artifact round trip, and the per-design ``scalar`` hot loop — and emits
the numbers in a *stable* JSON schema.  ``python -m repro bench --json
BENCH_kernel.json`` appends one trajectory point; the committed
``BENCH_kernel.json`` at the repo root holds the recorded history, and CI
re-runs the benchmark at smoke scale on every push, failing on schema drift;
``python -m repro report --check`` gates throughput against the committed
point (timing alone never gates — CI machines are noisy — but a collapse
past the tolerance is a real regression, not noise).

The headline numbers:

* ``designs[*].regions_per_sec`` — ``scalar`` hot-loop throughput per
  design,
* ``backends[*].regions_per_sec`` — the first design on the ``reference``
  oracle loop and on ``scalar``, giving ``speedup_over_reference``,
* ``stages`` — per-stage wall times (generate / save / load, and the
  one-off build of the trace's branch predictor columns, which every design
  then reads),
* ``peak_rss_kb`` — the process's peak resident set, which the mmap-backed
  trace store is meant to keep flat as worker counts grow.

Scale knobs mirror the benchmark suite: ``REPRO_BENCH_SMOKE=1`` selects the
tiny CI operating point; explicit CLI flags always win.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backends.reference import ReferenceBackend
from repro.branch.columns import trace_columns
from repro.core.designs import design_from_spec, resolve_design
from repro.core.frontend import FrontendResult, FrontendSimulator
from repro.workloads import generate_trace, get_profile, synthesize_program
from repro.workloads.packed import load_packed
from repro.workloads.trace import Trace

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "append_trajectory_point",
    "default_bench_settings",
    "format_bench_report",
    "load_trajectory",
    "load_trajectory_point",
    "point_backend_rps",
    "run_kernel_benchmark",
    "schema_signature",
    "schemas_match",
    "trajectory_backend_series",
]

#: Bumped whenever the emitted JSON layout changes meaning; CI compares the
#: recursive key structure of a fresh run against the committed trajectory
#: point, so accidental drift fails fast.
#: (2: pluggable backends — design rows carry ``backend``, the per-backend
#: ``backends`` table replaces ``record_path``, and ``packed_speedup``
#: generalizes to ``speedup_over_reference``.)
#: (3: the ``scenario`` section — an 8-core homogeneous CMP timed per
#: backend.)
#: (4: the ``scenario`` section is dropped.)
#: (5: ``stages.branch_columns_s`` — the trace's branch predictor columns
#: are built once before the design loop, so no design's best-of hides it.)
BENCH_SCHEMA_VERSION = 5

#: (scale, instructions, repeats) operating points: the full point is what
#: BENCH_kernel.json trajectory entries are recorded at; the smoke point is
#: what CI runs on every push.
_FULL_POINT = (0.2, 200_000, 3)
_SMOKE_POINT = (0.08, 20_000, 1)


def default_bench_settings() -> Dict[str, object]:
    """Operating point implied by ``REPRO_BENCH_SMOKE`` (CLI flags override)."""
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    scale, instructions, repeats = _SMOKE_POINT if smoke else _FULL_POINT
    return {
        "smoke": smoke,
        "scale": scale,
        "instructions": instructions,
        "repeats": repeats,
    }


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in kilobytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        peak //= 1024
    return int(peak)


def _time_run(
    simulator: FrontendSimulator, trace: Trace, oracle: bool
) -> Tuple[FrontendResult, float]:
    """Time one run on the ``scalar`` loop, or on the oracle when ``oracle``."""
    start = time.perf_counter()
    if oracle:
        result = ReferenceBackend().run(
            simulator, trace, simulator.config.warmup_fraction
        )
    else:
        result = simulator.run(trace)
    return result, time.perf_counter() - start


def run_kernel_benchmark(
    profile_name: str = "oltp_db2",
    scale: float = 0.2,
    instructions: int = 200_000,
    seed: int = 3,
    designs: Sequence[str] = ("baseline", "confluence"),
    repeats: int = 3,
    artifact_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Measure the simulation kernel and return one trajectory point.

    The trace is generated once, round-tripped through the columnar artifact
    format, mapped back in zero-copy, and then driven through every design's
    ``scalar`` hot loop ``repeats`` times (best-of is reported — the
    interesting quantity is the kernel's speed, not the scheduler's noise).
    The first design is additionally driven through the ``reference``
    oracle loop, so the point records both loops' regions/sec and
    ``speedup_over_reference`` (the gated trajectory metric; both sides of
    the ratio get the same repeats/best-of treatment so they absorb
    scheduler noise identically).
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if not designs:
        raise ValueError("at least one design is required")
    specs = [resolve_design(design) for design in designs]

    profile = get_profile(profile_name)
    if scale != 1.0:
        profile = profile.scaled(scale)

    start = time.perf_counter()
    program = synthesize_program(profile)
    trace = generate_trace(program, instructions, seed=seed, name=profile.name)
    generate_s = time.perf_counter() - start

    def _measure(directory: str) -> Dict[str, object]:
        artifact = Path(directory) / "bench.trace"
        start = time.perf_counter()
        trace.packed.save(artifact)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        packed = load_packed(artifact, mmap=True)
        load_s = time.perf_counter() - start
        mapped_trace = Trace.from_packed(packed)
        return {
            "save_s": save_s,
            "load_s": load_s,
            "artifact_bytes": artifact.stat().st_size,
            "mapped": packed.mapped,
            "trace": mapped_trace,
        }

    if artifact_dir is not None:
        round_trip = _measure(artifact_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
            round_trip = _measure(directory)
    bench_trace: Trace = round_trip.pop("trace")
    regions = len(bench_trace)

    # Built once per trace and memoized on it: timed here, as set-up, so the
    # first design's first repeat does not absorb it into a best-of.
    start = time.perf_counter()
    trace_columns(bench_trace.packed)
    branch_columns_s = time.perf_counter() - start

    def _best_of(spec_name: str, oracle: bool) -> Tuple[float, Dict[str, object]]:
        """(regions/sec, row) of the best of ``repeats`` runs."""
        best_s: Optional[float] = None
        result: Optional[FrontendResult] = None
        for _ in range(repeats):
            simulator, _ = design_from_spec(resolve_design(spec_name), program)
            result, elapsed = _time_run(simulator, bench_trace, oracle)
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        assert best_s is not None and result is not None
        rps = regions / best_s if best_s else 0.0
        return rps, {
            "design": spec_name,
            "backend": "reference" if oracle else "scalar",
            "seconds": best_s,
            "regions_per_sec": rps,
            "ipc": result.ipc,
        }

    timed = [_best_of(spec.name, oracle=False) for spec in specs]
    design_rows = [row for _, row in timed]
    scalar_rps = timed[0][0]
    # The per-loop table: the first design on the oracle, then its scalar row.
    reference_rps, reference_row = _best_of(specs[0].name, oracle=True)
    backend_rows = [reference_row, dict(design_rows[0])]

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": "kernel_hotloop",
        "config": {
            "profile": profile_name,
            "scale": scale,
            "instructions": instructions,
            "seed": seed,
            "designs": [spec.name for spec in specs],
            "repeats": repeats,
            "backend": "scalar",
        },
        "trace": {
            "regions": regions,
            "instructions": bench_trace.instruction_count,
            "artifact_bytes": round_trip["artifact_bytes"],
            "mapped": round_trip["mapped"],
        },
        "stages": {
            "generate_s": generate_s,
            "save_s": round_trip["save_s"],
            "load_s": round_trip["load_s"],
            "branch_columns_s": branch_columns_s,
        },
        "designs": design_rows,
        "backends": backend_rows,
        "speedup_over_reference": (
            scalar_rps / reference_rps if reference_rps else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb(),
        "host": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "machine": platform.machine(),
        },
    }


def schema_signature(payload: object) -> object:
    """Recursive key structure of a bench payload (values erased).

    Two payloads with the same signature have the same shape: identical
    nested dict keys, with every list reduced to the signature of its
    elements (which must agree with each other).  This is what the CI smoke
    job compares against the committed trajectory point — timing values
    change every run, the schema must not.
    """
    if isinstance(payload, dict):
        return {key: schema_signature(value) for key, value in sorted(payload.items())}
    if isinstance(payload, list):
        signatures = [schema_signature(item) for item in payload]
        unique: List[object] = []
        for signature in signatures:
            if signature not in unique:
                unique.append(signature)
        return unique
    return type(payload).__name__


def schemas_match(left: object, right: object) -> bool:
    """True when two payloads share a schema (bool/int/float treated alike)."""

    def normalize(signature: object) -> object:
        if isinstance(signature, dict):
            return {key: normalize(value) for key, value in signature.items()}
        if isinstance(signature, list):
            return [normalize(item) for item in signature]
        if signature in ("int", "float", "bool"):
            return "number"
        return signature

    return normalize(schema_signature(left)) == normalize(schema_signature(right))


def format_bench_report(payload: Dict[str, object]) -> str:
    """Human-readable rendering of one trajectory point."""
    lines = [
        f"kernel hot-loop benchmark (schema {payload['schema']})",
        "  trace: {regions} regions / {instructions} instructions "
        "({artifact_bytes} bytes on disk, mapped={mapped})".format(**payload["trace"]),
        "  stages: generate {generate_s:.3f}s, save {save_s:.3f}s, "
        "load {load_s:.3f}s, branch columns {branch_columns_s:.3f}s".format(
            **payload["stages"]
        ),
    ]
    for row in payload["designs"]:
        lines.append(
            "  {design:>16}: {regions_per_sec:>12,.0f} regions/s "
            "({seconds:.3f}s best, {backend} backend)".format(**row)
        )
    for row in payload["backends"]:
        lines.append(
            "  backend {backend:>10}: {regions_per_sec:>12,.0f} regions/s "
            "on {design}".format(**row)
        )
    lines.append(
        "  speedup over reference backend: "
        f"{payload['speedup_over_reference']:.2f}x"
    )
    lines.append(f"  peak RSS: {payload['peak_rss_kb']} KB")
    return "\n".join(lines)


def load_trajectory(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read every recorded point of a trajectory file, oldest first.

    Every point must be a schema 2..:data:`BENCH_SCHEMA_VERSION` payload:
    those share the per-design and per-backend ``regions_per_sec`` rows the
    schema check and the report read.  Anything else is an outside file this
    build cannot read, and raises :class:`ValueError` naming the path.  An
    explicitly *empty* trajectory (``{"points": []}``) is an empty list: a
    brand-new file is a legitimate "nothing recorded yet" state for a
    report, not corruption.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("points"), list):
        raise ValueError(f"{path} is not a bench trajectory file")
    points = [point for point in payload["points"] if isinstance(point, dict)]
    if len(points) != len(payload["points"]):
        raise ValueError(f"{path} has malformed trajectory points")
    for point in points:
        schema = point.get("schema")
        if not isinstance(schema, int) or not 2 <= schema <= BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"{path} holds a point that is not a known bench trajectory "
                f"point (schema {schema!r}, supported 2..{BENCH_SCHEMA_VERSION})"
            )
    return points


def load_trajectory_point(path: Union[str, Path]) -> Dict[str, object]:
    """Read the latest recorded point of a trajectory file."""
    points = load_trajectory(path)
    if not points:
        raise ValueError(f"{path} has no trajectory points")
    return points[-1]


def point_backend_rps(point: Mapping[str, object]) -> Dict[str, float]:
    """``{backend name: regions/sec}`` from one trajectory point.

    Reads the per-backend table every schema-2+ point carries; rows without
    a throughput value (or a malformed table) are simply absent, so the
    regression gate and the trend chart degrade to "fewer comparable
    backends" rather than crashing on history recorded by older builds.
    """
    rows = point.get("backends")
    series: Dict[str, float] = {}
    if not isinstance(rows, list):
        return series
    for row in rows:
        if not isinstance(row, dict):
            continue
        backend = row.get("backend")
        rps = row.get("regions_per_sec")
        if isinstance(backend, str) and isinstance(rps, (int, float)):
            series[backend] = float(rps)
    return series


def trajectory_backend_series(
    points: Sequence[Mapping[str, object]],
) -> Dict[str, List[Optional[float]]]:
    """Per-backend regions/sec series across a trajectory.

    Returns ``{backend: [rps or None per point]}`` with one slot per input
    point — ``None`` where that point did not measure the backend (e.g. a
    backend registered after the point was recorded).  This is the series
    the report's trend chart draws, one line per backend.
    """
    per_point = [point_backend_rps(point) for point in points]
    backends: List[str] = []
    for rps in per_point:
        for name in rps:
            if name not in backends:
                backends.append(name)
    return {
        name: [rps.get(name) for rps in per_point]
        for name in sorted(backends)
    }


def append_trajectory_point(
    path: Union[str, Path], payload: Dict[str, object]
) -> int:
    """Append one point to a trajectory file; returns the new point count.

    Creates the file when missing.  The write is atomic (temp file +
    rename), the ``put`` idiom of the result cache.
    """
    path = Path(path)
    points = load_trajectory(path) if path.exists() else []
    points.append(dict(payload))
    document = {"bench": "kernel_hotloop", "points": points}
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) if str(path.parent) else ".",
        prefix=".tmp-", suffix=".json",
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            json.dump(document, tmp, indent=2, sort_keys=True)
            tmp.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(points)

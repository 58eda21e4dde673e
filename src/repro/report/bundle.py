"""The :class:`ReportBundle`: one normalized, versioned unit of evidence.

Everything the reporting pipeline renders — bench trajectory points, sweep
:class:`~repro.api.RunReport` summaries, resilience counters — is first
folded into a *bundle*: a plain-JSON document with a schema version, so
reports can be archived, diffed, re-rendered by later builds and shipped
between machines without the simulator present.

Bundles follow the repository's artifact contract end to end:

* **Content-addressed persistence.** :meth:`ReportBundle.save` writes the
  bundle under ``$REPRO_REPORT_DIR`` (default ``<cache dir>/reports``) named
  by the SHA-256 of its canonical JSON, so identical evidence maps to one
  file and re-collecting an unchanged run rewrites nothing.
* **Checksummed loads.** Every saved bundle embeds a checksum of its
  payload; :func:`load_bundle` verifies it and **quarantines** unreadable,
  structurally wrong or checksum-mismatched files to ``*.corrupt`` with a
  :class:`~repro.sweep.CorruptArtifactWarning` — the same corrupt-vs-absent
  discipline the result cache and trace store follow (a missing file raises
  :class:`FileNotFoundError`; a corrupt one warns, moves aside and returns
  ``None``, never crashes a report build).
* **Versioned schema.** :data:`REPORT_SCHEMA_VERSION` gates loads; a bundle
  written by another build's layout is refused loudly instead of being
  half-read (``docs/report.md`` documents the layout field by field).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.sweep import CorruptArtifactWarning, default_cache_dir

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "BUNDLE_KIND",
    "ReportBundle",
    "bundle_checksum",
    "default_report_dir",
    "load_bundle",
]

#: Bumped whenever the bundle layout changes meaning; :func:`load_bundle`
#: refuses other versions instead of misreading them.
REPORT_SCHEMA_VERSION = 1

#: The ``kind`` tag distinguishing bundles from every other JSON artifact
#: the repo writes (trajectories, cache entries, saved sweep reports).
BUNDLE_KIND = "repro-report-bundle"


def default_report_dir() -> Path:
    """``$REPRO_REPORT_DIR`` when set, else ``<cache dir>/reports``."""
    override = os.environ.get("REPRO_REPORT_DIR")
    if override:
        return Path(override)
    return default_cache_dir() / "reports"


def bundle_checksum(payload: Mapping[str, object]) -> str:
    """Integrity checksum of a bundle payload (stable across JSON round-trips).

    Same canonical-JSON construction as the result cache's entry checksum:
    sorted keys, minimal separators, SHA-256 truncated to 16 hex digits.
    """
    canonical = json.dumps(dict(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class ReportBundle:
    """Normalized evidence for one report: trajectory + sweeps + resilience.

    Attributes:
        title: human heading for the rendered report.
        trajectory: bench trajectory points, oldest first, every point a
            schema-2+ payload (:func:`repro.perfbench.load_trajectory`
            rejects older ones), so renderers and the regression gate read
            one field vocabulary.
        trajectory_sources: the trajectory files the points came from.
        sweeps: one entry per collected sweep-report file:
            ``{"source": str, "reports": {workload: RunReport dict},
            "stats": {counter: int}}``.
        resilience: the sweep resilience counters summed across ``sweeps``
            plus any journal-directory scan
            (:func:`repro.report.collect.summarize_journals`).
        baseline: the chosen regression-baseline trajectory point
            (checked like ``trajectory``), or ``None`` when no baseline
            could be determined — the regression gate then refuses to run
            rather than silently passing.
        baseline_source: where the baseline came from, for the rendered
            provenance line.
    """

    title: str = "repro report"
    trajectory: List[Dict[str, object]] = field(default_factory=list)
    trajectory_sources: List[str] = field(default_factory=list)
    sweeps: List[Dict[str, object]] = field(default_factory=list)
    resilience: Dict[str, int] = field(default_factory=dict)
    baseline: Optional[Dict[str, object]] = None
    baseline_source: Optional[str] = None

    @property
    def newest_point(self) -> Optional[Dict[str, object]]:
        """The latest collected trajectory point (what the gate checks)."""
        return self.trajectory[-1] if self.trajectory else None

    def to_dict(self) -> Dict[str, object]:
        """The bundle as plain JSON data (schema + kind tags included)."""
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "kind": BUNDLE_KIND,
            "title": self.title,
            "trajectory": [dict(point) for point in self.trajectory],
            "trajectory_sources": list(self.trajectory_sources),
            "sweeps": [dict(sweep) for sweep in self.sweeps],
            "resilience": dict(self.resilience),
            "baseline": dict(self.baseline) if self.baseline is not None else None,
            "baseline_source": self.baseline_source,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ReportBundle":
        """Rebuild a bundle from :meth:`to_dict` data (schema-checked)."""
        if payload.get("kind") != BUNDLE_KIND:
            raise ValueError(f"not a report bundle (kind={payload.get('kind')!r})")
        if payload.get("schema") != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report bundle schema {payload.get('schema')!r} "
                f"(this build reads schema {REPORT_SCHEMA_VERSION})"
            )
        baseline = payload.get("baseline")
        return cls(
            title=str(payload.get("title", "repro report")),
            trajectory=[dict(point) for point in payload.get("trajectory", [])],  # type: ignore[union-attr]
            trajectory_sources=[str(s) for s in payload.get("trajectory_sources", [])],  # type: ignore[union-attr]
            sweeps=[dict(sweep) for sweep in payload.get("sweeps", [])],  # type: ignore[union-attr]
            resilience={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(payload.get("resilience", {})).items()  # type: ignore[call-overload]
            },
            baseline=dict(baseline) if isinstance(baseline, Mapping) else None,
            baseline_source=(
                str(payload["baseline_source"])
                if payload.get("baseline_source") is not None
                else None
            ),
        )

    def save(self, directory: Union[str, Path, None] = None) -> Path:
        """Persist the bundle content-addressed under ``directory``.

        The file name is the SHA-256 of the canonical payload (so identical
        evidence is one file) and the write is atomic (temp file + rename),
        the idiom of every store in the repo.  Returns the bundle's path.
        """
        target_dir = Path(directory) if directory is not None else default_report_dir()
        target_dir.mkdir(parents=True, exist_ok=True)
        payload = self.to_dict()
        checksum = bundle_checksum(payload)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        document = {"checksum": checksum, "payload": payload}
        path = target_dir / f"{digest}.bundle.json"
        handle, tmp_name = tempfile.mkstemp(
            dir=target_dir, prefix=".tmp-", suffix=".json"
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
        return path


def _quarantine(path: Path, reason: str) -> None:
    """Move a corrupt bundle aside and warn — the stores' shared discipline."""
    target = path.with_name(path.name + ".corrupt")
    moved: Optional[Path]
    try:
        os.replace(path, target)
        moved = target
    except OSError:
        moved = None
    where = f" (moved to {moved.name})" if moved is not None else ""
    warnings.warn(
        f"quarantined corrupt report bundle {path.name}: {reason}{where}",
        CorruptArtifactWarning,
        stacklevel=3,
    )


def load_bundle(path: Union[str, Path]) -> Optional[ReportBundle]:
    """Load a saved bundle, verifying its checksum.

    A missing file raises :class:`FileNotFoundError` (the caller named a
    path that is not there — that is an error, not corruption).  An
    unreadable, structurally wrong or checksum-mismatched file is
    quarantined to ``*.corrupt`` with a
    :class:`~repro.sweep.CorruptArtifactWarning` and reported as ``None``,
    so a flaky disk degrades a report to "re-collect the bundle" instead of
    crashing the build.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as error:
        _quarantine(path, f"unreadable bundle ({type(error).__name__})")
        return None
    if not isinstance(document, dict):
        _quarantine(path, "bundle is not a JSON object")
        return None
    payload = document.get("payload")
    if (
        not isinstance(payload, dict)
        or document.get("checksum") != bundle_checksum(payload)
    ):
        _quarantine(path, "bundle failed its checksum")
        return None
    try:
        return ReportBundle.from_dict(payload)
    except ValueError as error:
        _quarantine(path, str(error))
        return None

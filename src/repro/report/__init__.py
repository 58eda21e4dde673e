"""Reporting pipeline: collect recorded evidence, render it, gate on it.

The subsystem behind ``python -m repro report`` (see ``docs/report.md``):

* :mod:`repro.report.bundle` — the in-memory :class:`ReportBundle` that
  normalizes every input into one plain-data form; it is never written to
  disk, because every input it holds is already a file.
* :mod:`repro.report.collect` — gathers ``BENCH_*.json`` trajectories
  (bench schema 2 on), saved sweep/scenario reports, and run-journal
  resilience counters into a bundle.
* :mod:`repro.report.render` — the self-contained HTML and CI-postable
  markdown renderers, in one ``RENDERERS`` table.
* :mod:`repro.report.check` — the per-backend perf-regression gate CI
  fails on (``repro report --check --tolerance X``).
* :mod:`repro.report.svg` — stdlib-only inline SVG charts for the HTML
  renderer.
"""

from repro.report.bundle import REPORT_SCHEMA_VERSION, ReportBundle
from repro.report.check import check_bundle, format_check, regression_rows
from repro.report.collect import collect_bundle, summarize_journals
from repro.report.render import (
    RENDERERS,
    render_bundle,
    render_html,
    render_markdown,
)

__all__ = [
    "RENDERERS",
    "REPORT_SCHEMA_VERSION",
    "ReportBundle",
    "check_bundle",
    "collect_bundle",
    "format_check",
    "regression_rows",
    "render_bundle",
    "render_html",
    "render_markdown",
    "summarize_journals",
]

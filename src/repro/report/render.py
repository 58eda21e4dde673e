"""Report renderers: one :class:`ReportBundle`, several output formats.

:data:`RENDERERS` maps each format name to a callable
``(bundle, tolerance) -> str``:

* ``html`` — a **self-contained** static page: inline CSS, inline SVG
  charts (:mod:`repro.report.svg`), zero scripts, zero external assets.
  Sections: the perf trajectory (regions/sec trend per backend), the
  per-design/per-backend throughput of the newest point, the regression
  deltas against the chosen baseline, one comparison table per swept
  workload, the scenario×design speedup matrix, per-profile MPKI/IPC
  breakdowns (the paper's consolidation story), and the resilience
  counters.
* ``md`` — the same tables as GitHub-flavored markdown
  (:func:`repro.analysis.reporting.markdown_table`), so CI can post the
  summary into a PR or job log.

``python -m repro report --format`` takes its choices from that table.
Rendering is deterministic for a given bundle — no timestamps, no
randomness — which is what the golden-file snapshot tests pin.
"""

from __future__ import annotations

from html import escape
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.reporting import markdown_table
from repro.registry import unknown_name_error
from repro.report.bundle import REPORT_SCHEMA_VERSION, ReportBundle
from repro.report.check import check_bundle
from repro.report.svg import bar_chart, line_chart
from repro.perfbench import trajectory_backend_series

__all__ = [
    "RENDERERS",
    "render_bundle",
    "render_html",
    "render_markdown",
]

#: Columns of the per-workload sweep tables (mirrors the CLI sweep output).
_SWEEP_COLUMNS = ("design", "ipc", "speedup", "btb_mpki", "l1i_mpki", "area_mm2")

#: Display order of the resilience counters (sweep stats, then journals).
_RESILIENCE_ORDER = (
    "cells", "simulated", "cache_hits", "resumed", "retried", "timed_out",
    "pool_rebuilds", "quarantined", "traces_generated", "traces_loaded",
    "journals", "journal_cells_expected", "journal_cells_recorded",
)


# --------------------------------------------------------------------------- #
# Shared row assembly (both renderers consume these)
# --------------------------------------------------------------------------- #

def _design_rows(point: Mapping[str, Any]) -> List[Dict[str, Any]]:
    rows = point.get("designs")
    return [dict(row) for row in rows if isinstance(row, dict)] if isinstance(rows, list) else []


def _backend_rows(point: Mapping[str, Any]) -> List[Dict[str, Any]]:
    rows = point.get("backends")
    return [dict(row) for row in rows if isinstance(row, dict)] if isinstance(rows, list) else []


def _delta_rows(
    bundle: ReportBundle, tolerance: Optional[float]
) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """The regression-delta table, or the reason there is none.

    Without a tolerance the deltas are informational: the rows carry the
    ratios but no verdict (renderers omit the verdict column rather than
    implying a gate that was never run).
    """
    try:
        return list(check_bundle(bundle, tolerance if tolerance is not None else 1.0)), None
    except ValueError as error:
        return [], str(error)


def _sweep_workloads(bundle: ReportBundle) -> List[Tuple[str, Dict[str, Any]]]:
    """Every (workload name, RunReport dict) across the collected sweeps."""
    out: List[Tuple[str, Dict[str, Any]]] = []
    for sweep in bundle.sweeps:
        reports = sweep.get("reports")
        if not isinstance(reports, dict):
            continue
        for name, report in reports.items():
            if isinstance(report, dict):
                out.append((str(name), report))
    return out


def _report_rows(report: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Per-design rows of one RunReport dict, in the report's design order."""
    results = report.get("results", {})
    rows: List[Dict[str, Any]] = []
    for design in report.get("order", []):
        summary = results.get(design)
        if isinstance(summary, dict):
            rows.append(dict(summary))
    return rows


def _comparison_matrix(
    bundle: ReportBundle,
) -> Tuple[List[str], List[Dict[str, Any]]]:
    """Workload×design speedup matrix across every collected sweep.

    Rows are workloads (profiles and scenarios alike), columns the union of
    design names in first-seen order; cells are speedups over each report's
    own baseline design, formatted ``"1.23x"`` (empty where a workload did
    not run a design).
    """
    designs: List[str] = []
    rows: List[Dict[str, Any]] = []
    for workload, report in _sweep_workloads(bundle):
        row: Dict[str, Any] = {"workload": workload}
        for summary in _report_rows(report):
            design = str(summary.get("design"))
            if design not in designs:
                designs.append(design)
            speedup = summary.get("speedup")
            if isinstance(speedup, (int, float)):
                row[design] = f"{speedup:.2f}x"
        rows.append(row)
    return designs, rows


def _per_profile_rows(report: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Per-(design, profile) MPKI/IPC breakdown of one scenario report.

    Empty for homogeneous workloads (a single profile group carries no more
    information than the chip-level row).
    """
    rows: List[Dict[str, Any]] = []
    for summary in _report_rows(report):
        per_profile = summary.get("per_profile")
        if not isinstance(per_profile, dict) or len(per_profile) < 2:
            continue
        for profile in sorted(per_profile):
            breakdown = per_profile[profile]
            if not isinstance(breakdown, dict):
                continue
            rows.append({
                "design": summary.get("design"),
                "profile": profile,
                "cores": int(breakdown.get("cores", 0)),
                "ipc": breakdown.get("ipc"),
                "btb_mpki": breakdown.get("btb_mpki"),
                "l1i_mpki": breakdown.get("l1i_mpki"),
            })
    return rows


def _resilience_rows(bundle: ReportBundle) -> List[Dict[str, Any]]:
    counters = dict(bundle.resilience)
    rows = [
        {"counter": name, "value": counters.pop(name)}
        for name in _RESILIENCE_ORDER
        if name in counters
    ]
    rows.extend({"counter": name, "value": counters[name]} for name in sorted(counters))
    return rows


def _trend_series(bundle: ReportBundle) -> Dict[str, List[Optional[float]]]:
    return trajectory_backend_series(bundle.trajectory)


def _point_labels(bundle: ReportBundle) -> List[str]:
    return [f"#{index}" for index in range(len(bundle.trajectory))]


# --------------------------------------------------------------------------- #
# HTML renderer
# --------------------------------------------------------------------------- #

_CSS = """
body { font: 15px/1.5 -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.6rem; border-bottom: 2px solid #4269d0; padding-bottom: .3rem; }
h2 { font-size: 1.2rem; margin-top: 2rem; }
h3 { font-size: 1rem; margin-top: 1.2rem; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { border: 1px solid #d0d7de; padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f6f8fa; }
tr:nth-child(even) td { background: #fbfcfd; }
.ok { color: #116329; }
.regressed { color: #a40e26; font-weight: 600; }
.provenance { color: #57606a; font-size: .85rem; }
.note { color: #57606a; font-style: italic; }
svg { max-width: 100%; height: auto; }
.chart-title { font: 600 14px sans-serif; fill: #1a1a1a; }
.tick { font: 11px sans-serif; fill: #57606a; }
.grid { stroke: #e6e8eb; stroke-width: 1; }
""".strip()


def _html_cell(value: Any, float_format: str = "{:.3f}") -> str:
    if isinstance(value, float):
        return escape(float_format.format(value))
    return escape("" if value is None else str(value))


def _html_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str],
    float_format: str = "{:.3f}",
    classes: Optional[Mapping[int, str]] = None,
) -> str:
    """Rows → ``<table>``; ``classes`` maps a row index to a CSS class."""
    lines = ["<table>", "<tr>" + "".join(f"<th>{escape(c)}</th>" for c in columns) + "</tr>"]
    for index, row in enumerate(rows):
        css = f' class="{(classes or {}).get(index, "")}"' if classes and index in classes else ""
        cells = "".join(
            f"<td>{_html_cell(row.get(column), float_format)}</td>" for column in columns
        )
        lines.append(f"<tr{css}>{cells}</tr>")
    lines.append("</table>")
    return "\n".join(lines)


def render_html(bundle: ReportBundle, tolerance: Optional[float] = None) -> str:
    """Render the bundle as one self-contained static HTML page."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{escape(bundle.title)}</title>",
        f"<style>{_CSS}</style>",
        "</head>",
        "<body>",
        f"<h1>{escape(bundle.title)}</h1>",
    ]
    if bundle.trajectory_sources:
        sources = ", ".join(escape(source) for source in bundle.trajectory_sources)
        parts.append(f'<p class="provenance">trajectory: {sources}</p>')

    parts.append("<h2>Perf trajectory</h2>")
    if bundle.trajectory:
        series = _trend_series(bundle)
        if series:
            parts.append(line_chart(
                series,
                title="regions/sec per backend, trajectory point over point",
                x_labels=_point_labels(bundle),
                y_label="regions/s",
            ))
        newest = bundle.newest_point or {}
        design_rows = _design_rows(newest)
        if design_rows:
            parts.append("<h3>Newest point: per-design throughput</h3>")
            parts.append(bar_chart(
                [
                    (str(row.get("design")), float(row.get("regions_per_sec", 0.0)))
                    for row in design_rows
                ],
                title="regions/sec per design (newest point)",
                unit="regions/s",
            ))
            parts.append(_html_table(
                design_rows,
                ("design", "backend", "regions_per_sec", "ipc"),
                float_format="{:,.3f}",
            ))
        backend_rows = _backend_rows(newest)
        if backend_rows:
            parts.append("<h3>Newest point: per-backend throughput</h3>")
            parts.append(_html_table(
                backend_rows,
                ("backend", "design", "regions_per_sec", "ipc"),
                float_format="{:,.3f}",
            ))
    else:
        parts.append('<p class="note">No trajectory points were collected.</p>')

    parts.append("<h2>Regression deltas</h2>")
    delta_rows, delta_reason = _delta_rows(bundle, tolerance)
    if delta_rows:
        if bundle.baseline_source:
            parts.append(
                f'<p class="provenance">baseline: {escape(bundle.baseline_source)}'
                + (f" &middot; tolerance {tolerance:g}x" if tolerance is not None else "")
                + "</p>"
            )
        columns = ["backend", "regions_per_sec", "baseline_regions_per_sec", "ratio"]
        classes: Dict[int, str] = {}
        rendered = [dict(row) for row in delta_rows]
        if tolerance is not None:
            columns.append("verdict")
            for index, row in enumerate(rendered):
                row["verdict"] = "ok" if row["ok"] else "REGRESSED"
                classes[index] = "ok" if row["ok"] else "regressed"
        parts.append(_html_table(
            rendered, columns, float_format="{:,.3f}", classes=classes or None,
        ))
    else:
        parts.append(f'<p class="note">{escape(delta_reason or "no deltas")}</p>')

    workloads = _sweep_workloads(bundle)
    parts.append("<h2>Sweeps</h2>")
    if workloads:
        designs, matrix = _comparison_matrix(bundle)
        if len(matrix) > 1 or len(designs) > 1:
            parts.append("<h3>Workload &times; design speedup matrix</h3>")
            parts.append(_html_table(matrix, ["workload", *designs]))
        for workload, report in workloads:
            cores = report.get("cores")
            instructions = report.get("instructions_per_core")
            parts.append(
                f"<h3>{escape(workload)}</h3>"
                f'<p class="provenance">cores={_html_cell(cores)}, '
                f"instructions/core={_html_cell(instructions)}, "
                f"baseline={_html_cell(report.get('baseline'))}</p>"
            )
            parts.append(_html_table(_report_rows(report), _SWEEP_COLUMNS))
            per_profile = _per_profile_rows(report)
            if per_profile:
                parts.append("<h4>Per-profile breakdown</h4>")
                parts.append(_html_table(
                    per_profile,
                    ("design", "profile", "cores", "ipc", "btb_mpki", "l1i_mpki"),
                ))
    else:
        parts.append('<p class="note">No sweep reports were collected.</p>')

    resilience = _resilience_rows(bundle)
    if resilience:
        parts.append("<h2>Resilience counters</h2>")
        parts.append(_html_table(resilience, ("counter", "value")))

    parts.append(
        f'<p class="provenance">report bundle schema {REPORT_SCHEMA_VERSION} '
        "&middot; generated by <code>python -m repro report</code></p>"
    )
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------- #
# Markdown renderer
# --------------------------------------------------------------------------- #

def render_markdown(bundle: ReportBundle, tolerance: Optional[float] = None) -> str:
    """Render the bundle as GitHub-flavored markdown (the CI summary)."""
    lines: List[str] = [f"# {bundle.title}", ""]
    if bundle.trajectory_sources:
        lines.append(f"*Trajectory: {', '.join(bundle.trajectory_sources)}*")
        lines.append("")

    lines.append("## Perf trajectory")
    lines.append("")
    if bundle.trajectory:
        series = _trend_series(bundle)
        labels = _point_labels(bundle)
        trend_rows: List[Dict[str, Any]] = []
        for index, label in enumerate(labels):
            row: Dict[str, Any] = {"point": label}
            for backend, values in series.items():
                value = values[index]
                row[backend] = f"{value:,.0f}" if value is not None else ""
            trend_rows.append(row)
        lines.append(markdown_table(trend_rows, ["point", *sorted(series)]))
        lines.append("")
        newest = bundle.newest_point or {}
        design_rows = _design_rows(newest)
        if design_rows:
            lines.append("### Newest point: per-design regions/sec")
            lines.append("")
            lines.append(markdown_table(
                design_rows,
                ("design", "backend", "regions_per_sec", "ipc"),
                float_format="{:,.3f}",
            ))
            lines.append("")
    else:
        lines.append("_No trajectory points were collected._")
        lines.append("")

    lines.append("## Regression deltas")
    lines.append("")
    delta_rows, delta_reason = _delta_rows(bundle, tolerance)
    if delta_rows:
        if bundle.baseline_source:
            suffix = f" · tolerance {tolerance:g}x" if tolerance is not None else ""
            lines.append(f"*Baseline: {bundle.baseline_source}{suffix}*")
            lines.append("")
        columns = ["backend", "regions_per_sec", "baseline_regions_per_sec", "ratio"]
        rendered = [dict(row) for row in delta_rows]
        if tolerance is not None:
            columns.append("verdict")
            for row in rendered:
                row["verdict"] = "ok" if row["ok"] else "**REGRESSED**"
        lines.append(markdown_table(rendered, columns, float_format="{:,.3f}"))
        lines.append("")
    else:
        lines.append(f"_{delta_reason or 'no deltas'}_")
        lines.append("")

    workloads = _sweep_workloads(bundle)
    lines.append("## Sweeps")
    lines.append("")
    if workloads:
        designs, matrix = _comparison_matrix(bundle)
        if len(matrix) > 1 or len(designs) > 1:
            lines.append("### Workload × design speedup matrix")
            lines.append("")
            lines.append(markdown_table(matrix, ["workload", *designs]))
            lines.append("")
        for workload, report in workloads:
            lines.append(
                f"### {workload} (cores={report.get('cores')}, "
                f"instructions/core={report.get('instructions_per_core')})"
            )
            lines.append("")
            lines.append(markdown_table(_report_rows(report), _SWEEP_COLUMNS))
            lines.append("")
            per_profile = _per_profile_rows(report)
            if per_profile:
                lines.append("#### Per-profile breakdown")
                lines.append("")
                lines.append(markdown_table(
                    per_profile,
                    ("design", "profile", "cores", "ipc", "btb_mpki", "l1i_mpki"),
                ))
                lines.append("")
    else:
        lines.append("_No sweep reports were collected._")
        lines.append("")

    resilience = _resilience_rows(bundle)
    if resilience:
        lines.append("## Resilience counters")
        lines.append("")
        lines.append(markdown_table(resilience, ("counter", "value")))
        lines.append("")

    lines.append(
        f"*Report bundle schema {REPORT_SCHEMA_VERSION} · "
        "generated by `python -m repro report`*"
    )
    return "\n".join(lines) + "\n"


#: Format name -> renderer ``(bundle, tolerance) -> str``.
RENDERERS: Dict[str, Callable[[ReportBundle, Optional[float]], str]] = {
    "html": render_html,
    "md": render_markdown,
}


def render_bundle(
    bundle: ReportBundle, fmt: str = "html", tolerance: Optional[float] = None
) -> str:
    """Render ``bundle`` with the renderer named ``fmt``.

    Unknown format names raise
    :class:`~repro.registry.UnknownComponentError` listing the formats.
    """
    renderer = RENDERERS.get(fmt)
    if renderer is None:
        raise unknown_name_error("report format", fmt, RENDERERS)
    return renderer(bundle, tolerance)

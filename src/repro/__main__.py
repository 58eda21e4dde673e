"""Command-line entry points: ``python -m repro sweep``/``trace``/``bench``/....

The ``sweep`` subcommand runs a (profile x design) grid through
:mod:`repro.sweep` — fanned out across worker processes, served from the
on-disk result cache when the same cell has been simulated before, per-core
traces mapped in zero-copy from the shared trace store — and prints one
RunReport table per profile plus the cache and trace-store accounting.

The ``trace`` subcommand works with packed trace artifacts directly:
``--out`` generates a trace in memory and saves it as a columnar file,
``--verify`` maps the file back in and asserts its name and all nine
columns equal the trace just written (the CI round-trip guard), ``--info``
describes an existing artifact, and ``--prune BYTES`` LRU-evicts cold
artifacts until the shared store fits the byte budget.

The ``bench`` subcommand measures the simulation kernel
(:mod:`repro.perfbench`) and emits one stable-schema JSON trajectory point;
the committed ``BENCH_kernel.json`` tracks the history PR over PR (``--json``
*appends* a point), and ``--expect-schema`` lets CI fail on schema drift
without failing on raw timing.  Throughput is gated by ``report --check``.
Every ``sweep`` cell and every ``bench`` design runs the ``scalar`` loop;
``bench`` also times the ``reference`` oracle (:mod:`repro.backends`) on the
first design.

The ``report`` subcommand (:mod:`repro.report`) collects recorded evidence —
bench trajectories, saved sweep reports (``sweep --save-report``), run
journals — into a versioned bundle and renders it as a self-contained HTML
page or CI-postable markdown; ``--check --tolerance X`` is the per-backend
perf-regression gate CI fails on (see ``docs/report.md``).

Examples::

    # the paper's full grid, eight profiles x the whole design catalog
    python -m repro sweep --workers 8

    # a scaled-down slice, twice: the second run is served from cache
    python -m repro sweep --profiles oltp_db2 dss_qry2 \\
        --designs baseline confluence --scale 0.1 --cores 4 --workers 4
    python -m repro sweep --profiles oltp_db2 dss_qry2 \\
        --designs baseline confluence --scale 0.1 --cores 4 --expect-cached

    # a heterogeneous consolidation scenario (mixed per-core workloads)
    python -m repro sweep --scenarios consolidated_oltp_dss \\
        --designs baseline confluence --scale 0.1 --cores 8

    # pack a trace artifact, prove the round trip, inspect it
    python -m repro trace --profile oltp_db2 --scale 0.1 \\
        --instructions 50000 --seed 3 --out /tmp/oltp.trace --verify
    python -m repro trace --info /tmp/oltp.trace

    # bound the shared trace store at 512 MB (least-recently-used eviction)
    python -m repro trace --prune 512M

    # record a perf trajectory point / check a smoke run's schema against it
    python -m repro bench --json BENCH_kernel.json
    REPRO_BENCH_SMOKE=1 python -m repro bench --json /tmp/bench.json \\
        --expect-schema BENCH_kernel.json

    # render the committed trajectory + a saved sweep as one HTML page,
    # then gate the newest point against the committed baseline
    python -m repro sweep --profiles oltp_db2 --designs baseline confluence \\
        --scale 0.05 --cores 2 --save-report /tmp/sweep.report.json
    python -m repro report --bench BENCH_kernel.json \\
        --sweep /tmp/sweep.report.json --out report.html
    python -m repro report --bench /tmp/bench.json \\
        --baseline BENCH_kernel.json --check --tolerance 0.5

The result cache lives under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``); ``--cache-dir`` overrides it and ``--no-cache``
disables it.  The trace store lives under ``$REPRO_TRACE_DIR`` (default
``<cache dir>/traces``); ``--trace-dir`` overrides it and
``--no-trace-store`` disables it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional, Union

from repro.analysis.reporting import format_table
from repro.api import reports_from_sweep
from repro.core.designs import DESIGN_POINTS
from repro.resilience import CellExecutionError, RetryPolicy
from repro.sweep import (
    ResultCache,
    TraceStore,
    default_cache_dir,
    default_journal_dir,
    default_trace_dir,
    run_sweep,
)
from repro.workloads.profiles import WORKLOAD_PROFILES
from repro.workloads.scenario import SCENARIOS

if TYPE_CHECKING:
    from repro.workloads.trace import TraceStatistics


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Confluence reproduction command-line tools.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep",
        help="run a (profile x design) grid with caching and worker processes",
        description=(
            "Run a workload-profile x design-point grid through the parallel "
            "sweep engine and print one report table per profile."
        ),
    )
    sweep.add_argument(
        "--profiles", nargs="+", metavar="NAME",
        default=None,
        help="workload profiles to sweep (default: all "
             f"{len(WORKLOAD_PROFILES)} profiles, or none when --scenarios "
             "is given)",
    )
    sweep.add_argument(
        "--scenarios", nargs="+", metavar="NAME", default=[],
        help="heterogeneous consolidation scenarios to sweep alongside the "
             f"profiles (catalog: {', '.join(SCENARIOS)})",
    )
    sweep.add_argument(
        "--designs", nargs="+", metavar="NAME",
        default=list(DESIGN_POINTS),
        help="design points to sweep (default: the whole catalog)",
    )
    sweep.add_argument("--scale", type=float, default=1.0,
                       help="profile footprint/trace scale factor (default 1.0)")
    sweep.add_argument("--cores", type=int, default=16,
                       help="CMP cores per cell (default 16)")
    sweep.add_argument("--instructions-per-core", type=int, default=None,
                       help="trace length per core (default: profile recommendation)")
    sweep.add_argument("--trace-seed-base", type=int, default=100,
                       help="per-core trace seeds are base + core (default 100)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes for grid cells (default: serial)")
    sweep.add_argument("--baseline", default=None,
                       help="speedup reference design (default: 'baseline' when "
                            "present, else the first design)")
    sweep.add_argument("--cache-dir", default=None,
                       help=f"result cache directory (default: {default_cache_dir()})")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    sweep.add_argument("--expect-cached", action="store_true",
                       help="fail (exit 1) if any cell had to be simulated")
    sweep.add_argument("--trace-dir", default=None,
                       help=f"packed-trace store directory (default: {default_trace_dir()})")
    sweep.add_argument("--no-trace-store", action="store_true",
                       help="disable the on-disk trace store (always generate)")
    sweep.add_argument("--expect-trace-cached", action="store_true",
                       help="fail (exit 1) if any trace had to be generated")
    sweep.add_argument("--retries", type=int, default=2,
                       help="re-executions allowed per failed cell "
                            "(deterministic backoff; default 2)")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock bound per pooled cell attempt "
                            "(default: none)")
    sweep.add_argument("--journal-dir", default=None,
                       help="run-journal directory for crash resume "
                            f"(default: {default_journal_dir()})")
    sweep.add_argument("--no-journal", action="store_true",
                       help="disable the append-only run journal")
    sweep.add_argument("--resume", action="store_true",
                       help="replay a killed run's journal: cells it "
                            "completed are not re-simulated")
    sweep.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the reports as JSON instead of tables")
    sweep.add_argument("--save-report", default=None, metavar="PATH",
                       help="also persist the reports + stats as a versioned "
                            "JSON file that 'repro report --sweep PATH' "
                            "collects")
    sweep.set_defaults(handler=_run_sweep_command)

    trace = commands.add_parser(
        "trace",
        help="pack, verify and inspect columnar trace artifacts",
        description=(
            "Generate a workload trace and save it as a packed columnar "
            "artifact (--out; --verify maps it back and compares every "
            "column with the trace written), describe an existing artifact "
            "(--info) or bound the trace store's size (--prune)."
        ),
    )
    trace.add_argument("--profile", default=None, metavar="NAME",
                       help="workload profile to generate from")
    trace.add_argument("--scale", type=float, default=1.0,
                       help="profile footprint/trace scale factor (default 1.0)")
    trace.add_argument("--instructions", type=int, default=None,
                       help="trace length (default: profile recommendation)")
    trace.add_argument("--seed", type=int, default=1,
                       help="trace generation seed (default 1)")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the packed trace to PATH")
    trace.add_argument("--verify", action="store_true",
                       help="after writing, map the artifact back in and assert "
                            "its name and columns equal the trace written")
    trace.add_argument("--info", default=None, metavar="PATH",
                       help="describe an existing packed trace artifact")
    trace.add_argument("--prune", default=None, metavar="BYTES",
                       help="LRU-evict cold artifacts until the trace store is "
                            "at most BYTES (suffixes K/M/G accepted)")
    trace.add_argument("--trace-dir", default=None,
                       help=f"trace store directory to prune (default: {default_trace_dir()})")
    trace.set_defaults(handler=_run_trace_command)

    bench = commands.add_parser(
        "bench",
        help="measure the packed simulation kernel (stable-schema JSON)",
        description=(
            "Run the kernel hot-loop benchmark — trace generation, the "
            "columnar artifact round trip, and the packed simulation loop "
            "per design — and emit one stable-schema JSON trajectory point. "
            "REPRO_BENCH_SMOKE=1 selects the tiny CI operating point; "
            "explicit flags always win."
        ),
    )
    bench.add_argument("--profile", default="oltp_db2", metavar="NAME",
                       help="workload profile to benchmark on (default oltp_db2)")
    bench.add_argument("--scale", type=float, default=None,
                       help="profile scale factor (default: operating point)")
    bench.add_argument("--instructions", type=int, default=None,
                       help="trace length (default: operating point)")
    bench.add_argument("--seed", type=int, default=3,
                       help="trace generation seed (default 3)")
    bench.add_argument("--designs", nargs="+", metavar="NAME",
                       default=["baseline", "confluence"],
                       help="design points to time (default: baseline confluence)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="timing repeats per design, best-of reported "
                            "(default: operating point)")
    bench.add_argument("--json", default=None, metavar="PATH", dest="json_out",
                       help="append this run to the trajectory file at PATH "
                            "(created when missing)")
    bench.add_argument("--expect-schema", default=None, metavar="PATH",
                       help="fail (exit 1) if this run's JSON schema drifts "
                            "from the latest trajectory point at PATH")
    bench.set_defaults(handler=_run_bench_command)

    report = commands.add_parser(
        "report",
        help="collect recorded evidence into an HTML/markdown report and "
             "gate on perf regressions",
        description=(
            "Collect bench trajectories, saved sweep reports and run "
            "journals into a versioned report bundle, render it (HTML by "
            "default, self-contained: inline CSS + SVG, no scripts), and "
            "optionally fail on per-backend throughput regressions "
            "(--check --tolerance X) — the CI regression gate."
        ),
    )
    report.add_argument("--bench", nargs="+", metavar="PATH", default=None,
                        help="bench trajectory files to collect (any recorded "
                             "schema version; default: BENCH_kernel.json when "
                             "present)")
    report.add_argument("--sweep", nargs="+", metavar="PATH", default=[],
                        dest="sweep_paths",
                        help="saved sweep report files to collect (written by "
                             "'sweep --save-report' or 'sweep --json' output)")
    report.add_argument("--journal-dir", default=None, metavar="PATH",
                        help="summarize the run journals in this directory "
                             "into the resilience counters")
    report.add_argument("--baseline", default=None, metavar="PATH",
                        help="trajectory file whose latest point is the "
                             "regression baseline (default: the previous "
                             "collected point, when the trajectory has one)")
    report.add_argument("--title", default="Confluence reproduction report",
                        help="report title (default: 'Confluence "
                             "reproduction report')")
    report.add_argument("--format", default="html", metavar="NAME",
                        dest="fmt",
                        help="renderer to use (catalog: 'html', 'md', plus "
                             "anything registered on RENDERER_REGISTRY; "
                             "default html)")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the rendered report to PATH instead of "
                             "stdout")
    report.add_argument("--save-bundle", action="store_true",
                        help="also persist the collected bundle, "
                             "content-addressed, under --report-dir")
    report.add_argument("--report-dir", default=None, metavar="PATH",
                        help="bundle directory for --save-bundle (default: "
                             "$REPRO_REPORT_DIR or <cache dir>/reports)")
    report.add_argument("--check", action="store_true",
                        help="fail (exit 1) when any backend's regions/sec "
                             "in the newest point falls below --tolerance x "
                             "the baseline's")
    report.add_argument("--tolerance", type=float, default=0.85,
                        help="minimum newest/baseline regions-per-sec ratio "
                             "per backend for --check (default 0.85)")
    report.set_defaults(handler=_run_report_command)

    lint = commands.add_parser(
        "lint",
        help="run the repro.staticcheck invariant rules (R001..R005)",
        description=(
            "Parse the target trees and enforce the repository's structural "
            "invariants: hot-loop allocation discipline, determinism of "
            "trace/seed/cache-key code, cache-key closure completeness, "
            "pickle-boundary safety and registry wiring. Exits 0 when clean, "
            "1 on findings, 2 on bad usage (unknown rule, unreadable "
            "baseline, unparsable target)."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="package directories or files to lint "
             "(default: the installed repro package)",
    )
    lint.add_argument(
        "--rules", nargs="+", metavar="ID", default=None,
        help="run only these rule IDs (default: all registered rules)",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as stable-schema JSON instead of text",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="suppress findings recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the surviving findings to PATH as a baseline and exit 0 "
             "(the adoption ratchet)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(handler=_run_lint_command)
    return parser


def _run_sweep_command(args: argparse.Namespace) -> int:
    cache: Optional[ResultCache]
    if args.no_cache:
        cache = None
    else:
        cache = ResultCache(args.cache_dir)
    trace_store: Optional[TraceStore]
    if args.no_trace_store:
        trace_store = None
    else:
        trace_store = TraceStore(args.trace_dir)
    if args.resume and args.no_journal:
        print("sweep: --resume requires the journal (drop --no-journal)",
              file=sys.stderr)
        return 2
    journal: Union[bool, str] = True
    if args.no_journal:
        journal = False
    elif args.journal_dir is not None:
        journal = args.journal_dir
    try:
        policy = RetryPolicy(retries=args.retries, cell_timeout=args.cell_timeout)
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    profiles = args.profiles
    if profiles is None:
        # A scenarios-only invocation sweeps just the scenarios; the
        # all-profiles default only applies when neither axis was named.
        profiles = [] if args.scenarios else list(WORKLOAD_PROFILES)
    try:
        outcome = run_sweep(
            profiles,
            args.designs,
            scale=args.scale,
            cores=args.cores,
            instructions_per_core=args.instructions_per_core,
            trace_seed_base=args.trace_seed_base,
            workers=args.workers,
            cache=cache,
            trace_store=trace_store,
            scenarios=args.scenarios,
            policy=policy,
            journal=journal,
            resume=args.resume,
        )
    except (KeyError, ValueError) as error:
        # Unknown profile/scenario/design names arrive as KeyErrors with a
        # "known: ..." listing, and knobs no cell can run with (--workers 0,
        # --scale 0, --cores 0, ...) as ValueErrors raised before any cell
        # simulates; usage errors exit 2, like argparse's own.
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    except CellExecutionError as error:
        # A cell failed past its retry budget; completed cells kept their
        # cache/journal entries, so re-running with --resume picks up here.
        print(f"sweep: {error}", file=sys.stderr)
        print("sweep: completed cells were journaled; re-run with --resume "
              "to continue", file=sys.stderr)
        return 1
    except OSError as error:
        # A cache or trace-store directory that cannot be created, read or
        # written (e.g. $REPRO_TRACE_DIR under a missing or read-only path)
        # is an environment problem, not a crash.
        print(f"sweep: {error}", file=sys.stderr)
        return 1
    reports = reports_from_sweep(outcome, baseline=args.baseline)

    if args.save_report is not None:
        from repro.api import save_reports

        try:
            save_reports(args.save_report, reports, stats=outcome.stats.to_dict())
        except OSError as error:
            print(f"--save-report: cannot write {args.save_report}: {error}",
                  file=sys.stderr)
            return 1
        if not args.as_json:  # keep --json stdout pure JSON
            print(f"wrote {args.save_report}")

    if args.as_json:
        payload = {
            "reports": {name: report.to_dict() for name, report in reports.items()},
            "stats": outcome.stats.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        columns = ("design", "ipc", "speedup", "btb_mpki", "l1i_mpki", "area_mm2")
        for name, report in reports.items():
            rows = [report[design] for design in report.designs]
            print(format_table(
                rows, columns,
                title=f"{name} (cores={report.cores}, "
                      f"instructions/core={report.instructions_per_core})",
            ))
            print()
        where = f" ({cache.directory})" if cache is not None else " (cache disabled)"
        print(
            f"cells: {outcome.stats.cells} — {outcome.stats.simulated} simulated, "
            f"{outcome.stats.cache_hits} from cache{where}"
        )
        trace_where = (
            f" ({trace_store.directory})" if trace_store is not None
            else " (trace store disabled)"
        )
        print(
            f"traces: {outcome.stats.traces_generated} generated, "
            f"{outcome.stats.traces_loaded} loaded from store{trace_where}"
        )
        print(
            f"resilience: {outcome.stats.retried} retried, "
            f"{outcome.stats.timed_out} timed out, "
            f"{outcome.stats.pool_rebuilds} pool rebuilds, "
            f"{outcome.stats.quarantined} quarantined, "
            f"{outcome.stats.resumed} resumed from journal"
        )

    if args.expect_cached and outcome.stats.simulated:
        print(
            f"--expect-cached: {outcome.stats.simulated} of {outcome.stats.cells} "
            "cells were simulated instead of served from cache",
            file=sys.stderr,
        )
        return 1
    if args.expect_trace_cached and outcome.stats.traces_generated:
        print(
            f"--expect-trace-cached: {outcome.stats.traces_generated} traces "
            "were generated instead of loaded from the trace store",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_trace_stats(
    name: str, instruction_count: int, stats: "TraceStatistics"
) -> None:
    print(f"trace: {name}")
    print(f"  fetch regions:        {stats.fetch_region_count}")
    print(f"  instructions:         {instruction_count}")
    print(f"  branches:             {stats.branch_count} "
          f"({stats.taken_branch_count} taken)")
    print(f"  conditionals:         {stats.conditional_count} "
          f"({stats.conditional_taken_count} taken)")
    print(f"  calls/returns:        {stats.call_count}/{stats.return_count}")
    print(f"  indirect branches:    {stats.indirect_count}")
    print(f"  unique blocks:        {stats.unique_blocks} "
          f"({stats.instruction_footprint_bytes / 1024:.1f} KB footprint)")
    print(f"  unique taken branches:{stats.unique_taken_branches}")
    print(f"  avg region length:    {stats.average_region_length:.2f}")


def _parse_byte_size(text: str) -> int:
    """``"512M"``-style byte budgets for ``trace --prune`` (K/M/G suffixes)."""
    raw = text.strip()
    multiplier = 1
    if raw and raw[-1].upper() in ("K", "M", "G"):
        multiplier = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"not a byte size: {text!r} (expected e.g. 1048576, 512M)"
        ) from None
    if value < 0:
        raise ValueError(f"byte size must be non-negative: {text!r}")
    return value * multiplier


def _run_trace_command(args: argparse.Namespace) -> int:
    from repro.workloads import generate_trace, get_profile, load_packed, synthesize_program
    from repro.workloads.packed import COLUMN_NAMES
    from repro.workloads.trace import Trace

    if args.prune is not None:
        if args.out is not None or args.info is not None or args.verify:
            print("trace: --prune cannot be combined with --out/--info/--verify",
                  file=sys.stderr)
            return 2
        try:
            max_bytes = _parse_byte_size(args.prune)
        except ValueError as error:
            print(f"trace: {error}", file=sys.stderr)
            return 2
        store = TraceStore(args.trace_dir)
        if not store.directory.is_dir():
            # Pruning a store that does not exist is a misdirected command
            # (a typoed --trace-dir or stale $REPRO_TRACE_DIR), not a no-op.
            print(
                f"trace: trace store directory {store.directory} does not "
                "exist (set --trace-dir or $REPRO_TRACE_DIR)",
                file=sys.stderr,
            )
            return 1
        try:
            removed, freed = store.prune(max_bytes)
        except OSError as error:
            print(f"trace: cannot prune {store.directory}: {error}", file=sys.stderr)
            return 1
        print(
            f"pruned {removed} artifact{'s' if removed != 1 else ''} "
            f"({freed} bytes) from {store.directory} "
            f"(budget {max_bytes} bytes)"
        )
        return 0

    if args.info is None and args.out is None:
        print("trace: one of --out, --info or --prune is required", file=sys.stderr)
        return 2
    if args.info is not None and (args.out is not None or args.verify):
        print("trace: --info cannot be combined with --out/--verify",
              file=sys.stderr)
        return 2

    if args.info is not None:
        try:
            packed = load_packed(args.info)
        except (OSError, ValueError) as error:
            print(f"trace: cannot read {args.info}: {error}", file=sys.stderr)
            return 1
        trace = Trace.from_packed(packed)
        _print_trace_stats(trace.name, trace.instruction_count, trace.statistics())
        return 0

    if args.profile is None:
        print("trace: --out requires --profile", file=sys.stderr)
        return 2
    if args.instructions is not None and args.instructions < 1:
        print(f"trace: --instructions must be positive, got {args.instructions}",
              file=sys.stderr)
        return 2
    profile = get_profile(args.profile)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    instructions = (
        args.instructions
        if args.instructions is not None
        else profile.recommended_trace_instructions
    )
    trace = generate_trace(
        synthesize_program(profile), instructions, seed=args.seed, name=profile.name
    )
    try:
        trace.packed.save(args.out)
    except OSError as error:
        print(f"trace: cannot write {args.out}: {error}", file=sys.stderr)
        return 1
    _print_trace_stats(trace.name, trace.instruction_count, trace.statistics())
    print(f"wrote {args.out}")

    if args.verify:
        # The round-trip proof: the artifact must map back to exactly the
        # trace just written — its name and every column, byte for byte.
        try:
            reloaded = load_packed(args.out)
        except (OSError, ValueError) as error:
            print(f"--verify: cannot read back {args.out}: {error}",
                  file=sys.stderr)
            return 1
        differing = [
            attr for attr in COLUMN_NAMES
            if getattr(reloaded, attr).tobytes() != getattr(trace.packed, attr).tobytes()
        ]
        if reloaded.name != trace.name:
            differing.insert(0, "name")
        if differing:
            print(
                f"--verify: {args.out} does not read back the trace written: "
                f"{', '.join(differing)} differ",
                file=sys.stderr,
            )
            return 1
        print("--verify: artifact name and columns match the trace written")
    return 0


def _run_bench_command(args: argparse.Namespace) -> int:
    from repro.perfbench import (
        append_trajectory_point,
        default_bench_settings,
        format_bench_report,
        load_trajectory_point,
        run_kernel_benchmark,
        schemas_match,
    )

    settings = default_bench_settings()
    try:
        payload = run_kernel_benchmark(
            profile_name=args.profile,
            scale=args.scale if args.scale is not None else settings["scale"],
            instructions=(
                args.instructions
                if args.instructions is not None
                else settings["instructions"]
            ),
            seed=args.seed,
            designs=args.designs,
            repeats=args.repeats if args.repeats is not None else settings["repeats"],
        )
    except KeyError as error:
        # Unknown profile/design names; usage errors exit 2.
        print(f"bench: {error}", file=sys.stderr)
        return 2
    print(format_bench_report(payload))

    if args.expect_schema is not None:
        try:
            reference = load_trajectory_point(args.expect_schema)
        except (OSError, ValueError) as error:
            print(f"--expect-schema: cannot read {args.expect_schema}: {error}",
                  file=sys.stderr)
            return 1
        if not schemas_match(payload, reference):
            print(
                f"--expect-schema: this run's JSON schema drifted from "
                f"{args.expect_schema}; bump BENCH_SCHEMA_VERSION and refresh "
                "the committed trajectory point",
                file=sys.stderr,
            )
            return 1
        print(f"--expect-schema: schema matches {args.expect_schema}")

    # Append last so ``--expect-schema PATH --json PATH`` checks against the
    # *previous* point, and a drifted run is never recorded.
    if args.json_out is not None:
        try:
            count = append_trajectory_point(args.json_out, payload)
        except (OSError, ValueError) as error:
            print(f"--json: cannot append to {args.json_out}: {error}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.json_out} ({count} trajectory "
              f"point{'s' if count != 1 else ''})")

    return 0


def _run_report_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.registry import UnknownComponentError
    from repro.report import (
        check_bundle,
        collect_bundle,
        default_report_dir,
        format_check,
        render_bundle,
    )

    if args.check and not args.tolerance > 0:
        print(f"report: --tolerance must be positive, got {args.tolerance:g}",
              file=sys.stderr)
        return 2

    bench_paths = args.bench
    if bench_paths is None:
        # The committed trajectory is the evidence nearly every invocation
        # wants; only default to it, never require it.
        bench_paths = ["BENCH_kernel.json"] if Path("BENCH_kernel.json").is_file() else []
    if not bench_paths and not args.sweep_paths:
        print("report: nothing to collect — pass --bench and/or --sweep "
              "(no BENCH_kernel.json in the current directory)",
              file=sys.stderr)
        return 2

    try:
        bundle = collect_bundle(
            bench_paths=bench_paths,
            sweep_paths=args.sweep_paths,
            journal_dir=args.journal_dir,
            baseline_path=args.baseline,
            title=args.title,
        )
    except (OSError, ValueError) as error:
        print(f"report: cannot collect: {error}", file=sys.stderr)
        return 1

    if args.save_bundle:
        directory = args.report_dir if args.report_dir is not None else default_report_dir()
        try:
            saved = bundle.save(directory)
        except OSError as error:
            print(f"--save-bundle: cannot write under {directory}: {error}",
                  file=sys.stderr)
            return 1
        print(f"saved bundle {saved}", file=sys.stderr)

    if args.check:
        try:
            rows = check_bundle(bundle, args.tolerance)
        except ValueError as error:
            # A gate that cannot run (no points, no baseline, no shared
            # backends) fails loudly; it never passes vacuously.
            print(f"--check: {error}", file=sys.stderr)
            return 1
        print(format_check(rows, args.tolerance, bundle.baseline_source))
        if not all(row["ok"] for row in rows):
            print(
                f"--check: regions/sec regressed beyond tolerance "
                f"{args.tolerance:g}"
                + (f" of {bundle.baseline_source}" if bundle.baseline_source else ""),
                file=sys.stderr,
            )
            return 1
        print(f"--check: within tolerance {args.tolerance:g}")
        if args.out is None:
            return 0  # gate-only invocation: no rendered report to emit

    try:
        rendered = render_bundle(
            bundle, args.fmt, tolerance=args.tolerance if args.check else None
        )
    except UnknownComponentError as error:
        print(f"report: {error.args[0]}", file=sys.stderr)
        return 2

    if args.out is not None:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as error:
            print(f"report: cannot write {args.out}: {error}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)
    return 0


def _run_lint_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.registry import UnknownComponentError
    from repro.staticcheck import (
        LINT_SCHEMA_VERSION,
        Baseline,
        RULE_REGISTRY,
        run_lint,
    )

    if args.list_rules:
        for rule_id in RULE_REGISTRY.names():
            print(f"{rule_id}  {RULE_REGISTRY.describe(rule_id)}")
        return 0

    paths = args.paths or [str(Path(repro.__file__).parent)]

    baseline = None
    if args.baseline is not None:
        try:
            baseline = Baseline.load(Path(args.baseline))
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"lint: cannot load baseline {args.baseline}: {error}",
                  file=sys.stderr)
            return 2

    try:
        findings = run_lint(paths, rule_ids=args.rules, baseline=baseline)
    except UnknownComponentError as error:
        print(f"lint: {error.args[0]}", file=sys.stderr)
        return 2
    except (OSError, SyntaxError) as error:
        print(f"lint: cannot parse target: {error}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        Baseline.dump(findings, Path(args.write_baseline))
        print(f"wrote {len(findings)} suppression(s) to {args.write_baseline}")
        return 0

    if args.as_json:
        payload = {
            "schema": LINT_SCHEMA_VERSION,
            "count": len(findings),
            "findings": [finding.to_dict() for finding in findings],
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for finding in findings:
            print(finding.render())
        suppressed = f" ({len(baseline)} baselined)" if baseline else ""
        if findings:
            print(f"{len(findings)} finding(s){suppressed}")
        else:
            print(f"clean{suppressed}")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 evalbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (see ``evalbench/README.md``).  End-to-end
times are rescaled to a reference host speed (``hostspeed.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Set-up, iterations and their scratch
directories all stay inside the checkout (``.evalbench/``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import HostSpeed, pin_to_one_cpu

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".evalbench"
DIGESTS = HERE / "digests.json"

#: Set-up runs at least this many times per run; its median is reported.
SETUP_SAMPLES = 7

#: Units of the end-to-end metrics, in reporting order.
END_TO_END_UNITS = {
    "run_s": "s",
    "sim_kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_err": "fraction",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_grid", "figure_suite", "consolidation"))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: trace seed base of every trace (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep starting iterations (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass reporting the per-layer metrics")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digests in evalbench/digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children (pool workers)."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def load_pinned(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not DIGESTS.is_file():
        return None
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return pinned.get(workload, {}).get(str(seed))


def pin_digests(workload: str, seed: int, digests: Dict[str, str]) -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    pinned.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


class Run:
    """One benchmark run: set-up samples, iterations and their checks."""

    def __init__(self, workload: Any, seed: int, pinned: Optional[Dict[str, str]]) -> None:
        from repro.sweep import clear_workload_memo
        from repro.workloads.cfg import workload_program

        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.reference: Optional[Dict[str, str]] = pinned
        #: (start, end) of each program synthesis, on the perf_counter clock.
        self.synthesize: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}
        self._clear = clear_workload_memo
        self._program = workload_program
        self._profiles = workload.profiles(seed)

    def setup(self) -> None:
        """Cold in-process state, then program synthesis (a set-up sample)."""
        self._clear()
        start = time.perf_counter()
        for profile in self._profiles:
            self._program(profile)
        self.synthesize.append((start, time.perf_counter()))

    @property
    def synthesize_s(self) -> List[float]:
        return [end - start for start, end in self.synthesize]

    def iteration(self, study: Any = None, span: Any = None) -> Dict[str, Any]:
        """Set up, then time one closed-loop iteration and check its outputs."""
        from workloads import Outcome, no_study_hook

        self.setup()
        expected = self.workload.items(self.seed)
        workdir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
        try:
            start = time.perf_counter()
            try:
                with span() if span is not None else contextlib.nullcontext():
                    outcome = self.workload.run(self.seed, workdir, study or no_study_hook)
            except Exception as error:
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(failed={item: repr(error) for item in expected})
            end = time.perf_counter()
            if outcome.items:
                self.workload.finish(outcome, workdir, self.seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

        from checks import digest

        digests = {item: digest(data) for item, data in outcome.items.items()}
        if self.reference is None and not outcome.failed:
            self.reference = digests
        for item in expected:
            reason = outcome.failed.get(item)
            if reason is None and item not in digests:
                reason = "missing from the outputs"
            if reason is None and self.reference is not None \
                    and self.reference.get(item) != digests[item]:
                reason = "digest differs from " + ("the pinned one" if self.pinned
                                                   else "the run's first iteration")
            if reason is not None:
                self.failures[item] = reason
                self.failed += 1
        self.attempted += len(expected)
        return {
            "run_s": end - start,
            "window": (start, end),
            "instructions": outcome.instructions,
            "paper_err": outcome.paper_err,
            "retried": outcome.retried,
            "complete": not outcome.failed and len(digests) == len(expected),
        }


def _should_continue(started: float, seconds: float, last: float) -> bool:
    """Start another iteration only if it is expected to end within budget."""
    return (time.perf_counter() - started) + last <= seconds


def end_to_end(run: Run, speed: HostSpeed, imports: Tuple[float, float],
               seconds: float) -> Tuple[Dict[str, float], int]:
    """Timed iterations until the budget is spent; end-to-end metrics.

    Every time is rescaled to the reference host speed over its own
    interval (see ``hostspeed.py``); the wall times are printed too.
    """
    samples: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        samples.append(run.iteration())
        if not _should_continue(started, seconds, max(s["run_s"] for s in samples)):
            break
    run_s = [speed.rescale(*s["window"]) for s in samples]
    kips = [s["instructions"] / 1000.0 / ref_s
            for s, ref_s in zip(samples, run_s) if s["complete"]]
    errs = [s["paper_err"] for s in samples if s["paper_err"] is not None]
    synthesize_s = statistics.median(speed.rescale(*window) for window in run.synthesize)
    wall_setup_s = imports[1] - imports[0] + statistics.median(run.synthesize_s)
    print(f"wall: run_s {statistics.median(s['run_s'] for s in samples):.6g} s  "
          f"setup_s {wall_setup_s:.6g} s  host factor "
          f"{speed.factor(imports[0], time.perf_counter()):.4g}")
    metrics = {
        "run_s": statistics.median(run_s),
        "sim_kips": statistics.median(kips) if kips else 0.0,
        "setup_s": speed.rescale(*imports) + synthesize_s,
        "peak_rss_mb": peak_rss_mb(),
        "paper_err": statistics.median(errs) if errs else 0.0,
    }
    return metrics, len(samples)


def traced(run: Run, speed: HostSpeed, workload_name: str,
           seconds: float) -> Tuple[Dict[str, float], int]:
    """One untraced iteration, then traced ones; per-layer metrics.

    ``trace.overhead`` compares rescaled times, so host drift between the
    untraced and the traced iterations does not enter it.
    """
    import layers
    from tracer import Tracer, write_spans

    started = time.perf_counter()
    untraced = run.iteration()
    exchange = Path(tempfile.mkdtemp(dir=WORK, prefix="exchange-"))
    tracer = Tracer(exchange_dir=exchange)
    layer = layers.LayerTracing(tracer)
    layer.install()
    per_iteration: List[Dict[str, float]] = []
    traced_s: List[float] = []
    traced_windows: List[Tuple[float, float]] = []
    spans: List[Dict[str, Any]] = []
    try:
        while True:
            tracer.reset()
            tracer.run_id = f"{workload_name}-seed{run.seed}-it{len(traced_s)}"
            sample = run.iteration(
                study=layer.study,
                span=lambda: tracer.span("workload " + workload_name),
            )
            workers = tracer.collect_children()
            traced_s.append(sample["run_s"])
            traced_windows.append(sample["window"])
            per_iteration.append(layers.layer_metrics(
                tracer,
                cell_processes=workers or 1,
                retried=sample["retried"],
                synthesize_s=statistics.median(run.synthesize_s),
            ))
            spans.extend(tracer.spans)
            if not _should_continue(started, seconds, max(traced_s)):
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(exchange, ignore_errors=True)
    span_file = WORK / "spans" / f"{workload_name}-seed{run.seed}.jsonl"
    write_spans(spans, span_file)
    print(f"spans: {len(spans)} written to {span_file.relative_to(ROOT)}", file=sys.stderr)
    metrics = {
        name: statistics.median(values[name] for values in per_iteration)
        for name in per_iteration[0]
    }
    metrics["trace.overhead"] = (
        statistics.median(speed.rescale(*window) for window in traced_windows)
        / speed.rescale(*untraced["window"])
    )
    return metrics, len(traced_s)


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or ".design_s." in name:
        return "s"
    if name.endswith("ns_per_region"):
        return "ns"
    if name.endswith(("_ratio", "redundancy", "overhead")):
        return "ratio"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"evalbench: no repro package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # Never touch a user's stores: anything that falls back to the default
    # directories lands in the checkout's scratch area instead.
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    os.environ["REPRO_TRACE_DIR"] = str(WORK / "default-traces")

    pin_to_one_cpu()
    speed = HostSpeed().start()
    try:
        return measure(args, src, speed)
    finally:
        speed.stop()


def measure(args: argparse.Namespace, src: Path, speed: HostSpeed) -> int:
    """Import, set up, run the workload and print its metrics."""
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import checks
    import workloads

    imports = (start, time.perf_counter())
    checks.install_result_checks()

    workload = workloads.WORKLOADS[args.workload]
    pinned = None if args.pin else load_pinned(args.workload, args.seed)
    run = Run(workload, args.seed, pinned)
    for _ in range(SETUP_SAMPLES - 1):  # every iteration adds one more sample
        run.setup()
    if args.trace:
        metrics, iterations = traced(run, speed, args.workload, args.seconds)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics, iterations = end_to_end(run, speed, imports, args.seconds)
        units = END_TO_END_UNITS

    for item, reason in sorted(run.failures.items()):
        print(f"FAILED {item}: {reason}", file=sys.stderr)
    if args.pin:
        if run.failed or run.reference is None:
            print("evalbench: not pinning digests of a failing run", file=sys.stderr)
            return 1
        pin_digests(args.workload, args.seed, run.reference)

    error_rate = run.failed / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  iterations {iterations}  "
          f"digests {'pinned' if pinned else 'self-consistent'}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<34} {error_rate:>14.6g} ratio  ({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

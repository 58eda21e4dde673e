"""Metrics used throughout the evaluation.

Small, dependency-free helpers so benchmarks, tests and examples all compute
MPKI, miss coverage and averaged speedups the same way the paper does.
"""

from __future__ import annotations

from typing import Iterable


def mpki(misses: int, instructions: int) -> float:
    """Misses per kilo-instruction.

    A non-positive instruction count is an error, not zero MPKI: it means
    the run measured nothing (e.g. the warmup swallowed the whole trace),
    and silently reporting 0.0 would read as a *perfect* result.
    """
    if instructions <= 0:
        raise ValueError(
            f"mpki needs a positive instruction count, got {instructions} "
            "(a run that measured no instructions is broken, not miss-free)"
        )
    return 1000.0 * misses / instructions


def miss_coverage(baseline_misses: int, design_misses: int) -> float:
    """Fraction of the baseline's misses a design eliminates (Figures 8-10).

    Negative values mean the design *added* misses relative to the baseline,
    which Figure 10 shows for undersized AirBTB configurations.  A baseline
    without misses is an error (matching :func:`geometric_mean`'s
    loud-failure behavior): there is nothing to cover, so every answer would
    be an artifact of the degenerate denominator.
    """
    if baseline_misses <= 0:
        raise ValueError(
            f"miss_coverage needs positive baseline misses, got "
            f"{baseline_misses} (a baseline with no misses leaves nothing "
            "to cover — the workload is too small for this study)"
        )
    return (baseline_misses - design_misses) / baseline_misses


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, the conventional way to average speedups.

    Non-positive values are an error, not something to silently drop: a zero
    speedup means a run produced no cycles or no instructions, and averaging
    around it would mask the broken run.
    """
    values = list(values)
    if not values:
        return 0.0
    non_positive = sum(1 for value in values if value <= 0)
    if non_positive:
        raise ValueError(
            f"geometric_mean needs positive values; got {non_positive} "
            f"non-positive of {len(values)} (a non-positive speedup usually "
            "means a broken run)"
        )
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def fraction_of_ideal(design_speedup: float, ideal_speedup: float) -> float:
    """How much of the ideal design's *improvement* a design captures.

    The paper's headline metric: Confluence delivers 85% of the performance
    improvement of a perfect L1-I + BTB, i.e.
    (design - 1) / (ideal - 1).
    """
    if ideal_speedup <= 1.0:
        return 0.0
    return (design_speedup - 1.0) / (ideal_speedup - 1.0)

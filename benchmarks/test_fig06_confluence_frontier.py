"""Figure 6: Confluence versus conventional frontends (performance vs area).

Paper result: Confluence delivers 85% of the Ideal improvement at ~1% core
area overhead, while the best alternative (2LevelBTB+SHIFT) reaches 62% at
~8% area.  Our reproduction preserves the ordering and the area story; the
absolute fraction of Ideal is lower because SHIFT covers a smaller share of
L1-I misses on the synthetic workloads than on the paper's commercial traces.
"""

from repro.analysis import frontend_comparison, format_table
from repro.analysis.experiments import performance_area_frontier
from repro.core.metrics import fraction_of_ideal, geometric_mean

DESIGNS = (
    "baseline", "fdp", "phantom_fdp", "2level_fdp", "2level_shift", "confluence", "ideal",
)


def test_fig06_confluence_frontier(workloads, benchmark, shape_assertions):
    def run():
        per_design = {name: [] for name in DESIGNS}
        areas = {}
        for program, trace in workloads.values():
            outcomes = frontend_comparison(program, trace, DESIGNS)
            for row in performance_area_frontier(outcomes):
                per_design[row["design"]].append(row["relative_performance"])
                areas[row["design"]] = row["relative_area"]
        return [
            {
                "design": name,
                "relative_performance": geometric_mean(per_design[name]),
                "relative_area": areas[name],
            }
            for name in DESIGNS
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    perf = {row["design"]: row["relative_performance"] for row in rows}
    area = {row["design"]: row["relative_area"] for row in rows}
    for row in rows:
        row["fraction_of_ideal"] = fraction_of_ideal(row["relative_performance"], perf["ideal"])
    print()
    print(format_table(
        rows,
        ("design", "relative_performance", "relative_area", "fraction_of_ideal"),
        title="Figure 6: Confluence on the performance/area frontier",
    ))

    if not shape_assertions:
        return
    # Confluence beats every FDP-based design and 2LevelBTB+SHIFT...
    assert perf["confluence"] > perf["2level_shift"]
    assert perf["confluence"] > perf["2level_fdp"]
    assert perf["confluence"] > perf["fdp"]
    # ...at a fraction of the two-level design's area (~1% vs ~8% of the core).
    assert area["confluence"] - 1.0 < 0.25 * (area["2level_shift"] - 1.0)
    assert area["confluence"] < 1.03
    # And it captures a substantial share of the Ideal improvement.
    assert fraction_of_ideal(perf["confluence"], perf["ideal"]) > 0.25

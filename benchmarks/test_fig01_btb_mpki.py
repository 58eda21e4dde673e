"""Figure 1: BTB MPKI as a function of BTB capacity (1K-32K entries).

Paper result: most workloads keep missing until ~16K entries; OLTP on Oracle
benefits even from 32K.  Our scaled-down workloads saturate roughly one
capacity step earlier, because their synthetic programs hold fewer distinct
branches than the commercial binaries, but the shape — a steep drop that
only flattens at multi-thousand-entry capacities far beyond a practical
single-cycle BTB — is the result being reproduced.
"""

from repro.analysis import btb_capacity_sweep, format_table

CAPACITIES = (1024, 2048, 4096, 8192, 16384, 32768)


def test_fig01_btb_mpki_vs_capacity(workloads, benchmark, shape_assertions):
    def run():
        rows = []
        for label, (_, trace) in workloads.items():
            series = btb_capacity_sweep(trace, capacities=CAPACITIES)
            row = {"workload": label}
            row.update({f"{capacity // 1024}K": mpki for capacity, mpki in series.items()})
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    columns = ["workload"] + [f"{capacity // 1024}K" for capacity in CAPACITIES]
    print()
    print(format_table(rows, columns, title="Figure 1: BTB MPKI vs capacity (entries)"))

    if not shape_assertions:
        return
    for row in rows:
        # MPKI must fall monotonically (within noise) and collapse at 32K.
        assert row["1K"] > row["32K"]
        assert row["32K"] < 0.5 * row["1K"]

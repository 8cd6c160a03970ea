"""Ablation: measurement cadence error on the Figure 1 series.

OpenINTEL measures daily; our long sweeps default to weekly.  This bench
quantifies the error that cadence choice introduces on the NS-composition
series over the conflict window.
"""

import datetime as dt

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_full_sweep
from repro.measurement import FastCollector

WINDOW = (dt.date(2022, 2, 1), dt.date(2022, 5, 25))


def test_bench_ablation_cadence(benchmark, bench_world, save):
    collector = FastCollector(bench_world)

    def run():
        return tuple(
            merge_full_sweep([
                summarize_snapshot(snapshot)
                for snapshot in collector.sweep(WINDOW[0], WINDOW[1], step)
            ]).ns_composition
            for step in (1, 7, 28)
        )

    daily, weekly, monthly = benchmark.pedantic(run, rounds=1, iterations=1)
    daily_by_date = {p.date: p.share("full") for p in daily}

    def max_error(series):
        return max(
            abs(point.share("full") - daily_by_date[point.date])
            for point in series
            if point.date in daily_by_date
        )

    weekly_err = max_error(weekly)
    monthly_err = max_error(monthly)
    lines = [
        "== ablation: measurement cadence (NS full-share, conflict window) ==",
        f"weekly vs daily, max abs error:  {weekly_err:.3f} pp (sampling exactness)",
        f"monthly vs daily, max abs error: {monthly_err:.3f} pp",
        "note: sampled days agree exactly; coarse cadence only *misses* "
        "transition days, it does not distort sampled values.",
    ]
    save("ablation_cadence", "\n".join(lines))
    print("\n" + "\n".join(lines))
    assert weekly_err == 0.0  # sampled days are exact

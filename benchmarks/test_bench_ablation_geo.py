"""Ablation: geolocation lag vs the Netnod event (paper footnote 5).

The paper warns that geolocation inferences "lag behind" when address
space *moves* rather than changes.  We measure exactly that: in
renumber mode the March 3 transition is visible immediately; in
transfer mode with a lagged geolocation feed, the sanctioned domains'
jump to fully-Russian name service is detected only after the lag.
"""

import datetime as dt

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_recent_window
from repro.measurement import FastCollector
from repro.sim import ConflictScenarioConfig, build_world

SCALE = 1000.0
WINDOW = (dt.date(2022, 2, 24), dt.date(2022, 3, 31))


def _full_share_series(world):
    # The summary's sanctioned triple is the NS composition of
    # world.sanctioned_indices: the 107 sanctioned domains.
    collector = FastCollector(world)
    summaries = [
        summarize_snapshot(snapshot)
        for snapshot in collector.sweep(WINDOW[0], WINDOW[1], 1)
    ]
    series = merge_recent_window([], summaries).sanctioned_composition
    return {point.date: point.share("full") for point in series}


def _first_day_above(series, threshold=90.0):
    for date in sorted(series):
        if series[date] >= threshold:
            return date
    return None


def test_bench_ablation_geo_lag(benchmark, save):
    def run():
        renumber = build_world(
            ConflictScenarioConfig(scale=SCALE, with_pki=False)
        )
        transfer_lagged = build_world(
            ConflictScenarioConfig(
                scale=SCALE, with_pki=False,
                netnod_mode="transfer", geo_lag_days=14,
            )
        )
        return (
            _full_share_series(renumber),
            _full_share_series(transfer_lagged),
        )

    instant, lagged = benchmark.pedantic(run, rounds=1, iterations=1)
    detected_instant = _first_day_above(instant)
    detected_lagged = _first_day_above(lagged)
    assert detected_instant is not None and detected_lagged is not None
    delay = (detected_lagged - detected_instant).days
    lines = [
        "== ablation: geolocation lag vs the Netnod transition ==",
        f"renumber mode: >=90% fully-Russian first seen {detected_instant}",
        f"transfer mode + 14-day geo lag: first seen {detected_lagged}",
        f"detection delay: {delay} days (configured lag: 14)",
    ]
    save("ablation_geo", "\n".join(lines))
    print("\n" + "\n".join(lines))
    assert 10 <= delay <= 18

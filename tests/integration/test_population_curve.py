"""The black curve: registered-domain totals behave like the paper's.

The paper's Figure 1 total starts just under 5 M and stays within a
narrow band over five years, with only a measurement-outage dip.  At
reproduction scale the same must hold.
"""

import datetime as dt

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_full_sweep
from repro.measurement import FastCollector
from repro.timeline import STUDY_END, STUDY_START


class TestBlackCurve:
    def test_totals_stay_in_band(self, tiny_world):
        collector = FastCollector(tiny_world)
        series = merge_full_sweep([
            summarize_snapshot(snapshot)
            for snapshot in collector.sweep(STUDY_START, STUDY_END, 30)
        ]).ns_composition
        totals = series.totals()
        start = totals[0]
        assert all(0.85 * start <= total <= 1.45 * start for total in totals)

    def test_modest_net_growth(self, tiny_world):
        start = tiny_world.population.active_count(STUDY_START)
        end = tiny_world.population.active_count(STUDY_END)
        assert 0.95 * start <= end <= 1.35 * start

    def test_no_single_week_cliff_outside_outage(self, tiny_world):
        collector = FastCollector(tiny_world)
        outage_week = dt.date(2021, 3, 22)
        series = merge_full_sweep([
            summarize_snapshot(snapshot)
            for snapshot in collector.sweep(STUDY_START, STUDY_END, 7)
        ]).ns_composition
        points = series.points()
        for previous, current in zip(points, points[1:]):
            if abs((current.date - outage_week).days) <= 7 or abs(
                (previous.date - outage_week).days
            ) <= 7:
                continue
            ratio = current.total / max(previous.total, 1)
            assert 0.93 < ratio < 1.07, current.date

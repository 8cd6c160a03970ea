"""Tests for repro.core.composition."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.archive import summarize_snapshot
from repro.core.composition import CompositionPoint, CompositionSeries
from repro.core.reducers import merge_full_sweep, merge_recent_window
from repro.errors import AnalysisError
from repro.measurement.fast import FastCollector


class TestPoint:
    def test_total(self):
        point = CompositionPoint(dt.date(2022, 1, 1), 70, 10, 20)
        assert point.total == 100

    def test_share(self):
        point = CompositionPoint(dt.date(2022, 1, 1), 70, 10, 20)
        assert point.share("full") == 70.0

    def test_share_empty(self):
        point = CompositionPoint(dt.date(2022, 1, 1), 0, 0, 0)
        assert point.share("full") == 0.0

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_shares_sum_to_100(self, full, part, non):
        point = CompositionPoint(dt.date(2022, 1, 1), full, part, non)
        if point.total:
            assert point.share("full") + point.share("part") + point.share(
                "non"
            ) == pytest.approx(100.0)


class TestSeries:
    def test_chronological_enforced(self):
        series = CompositionSeries()
        series.add_counts(dt.date(2022, 1, 2), 1, 0, 0)
        with pytest.raises(AnalysisError):
            series.add_counts(dt.date(2022, 1, 1), 1, 0, 0)

    def test_at_and_nearest(self):
        series = CompositionSeries()
        series.add_counts(dt.date(2022, 1, 1), 1, 0, 0)
        series.add_counts(dt.date(2022, 1, 8), 0, 1, 0)
        assert series.at(dt.date(2022, 1, 8)).part == 1
        assert series.nearest(dt.date(2022, 1, 7)).part == 1
        with pytest.raises(AnalysisError):
            series.at(dt.date(2022, 1, 5))

    def test_nearest_out_of_range_clamps(self):
        series = CompositionSeries()
        series.add_counts(dt.date(2022, 1, 1), 1, 0, 0)
        series.add_counts(dt.date(2022, 1, 8), 0, 1, 0)
        assert series.nearest(dt.date(2021, 12, 1)).full == 1
        assert series.nearest(dt.date(2022, 2, 1)).part == 1

    def test_nearest_tie_prefers_earlier(self):
        series = CompositionSeries()
        series.add_counts(dt.date(2022, 1, 1), 1, 0, 0)
        series.add_counts(dt.date(2022, 1, 5), 0, 1, 0)
        # 2022-01-03 is equidistant; the earlier point wins (historic
        # min()-scan behaviour).
        assert series.nearest(dt.date(2022, 1, 3)).full == 1

    def test_indexed_lookup_matches_linear_scan(self):
        series = CompositionSeries()
        base = dt.date(2022, 1, 1)
        for day in range(0, 60, 7):
            series.add_counts(base + dt.timedelta(days=day), day, 1, 2)
        points = series.points()
        for probe_day in range(-3, 65):
            probe = base + dt.timedelta(days=probe_day)
            expected = min(points, key=lambda p: abs((p.date - probe).days))
            assert series.nearest(probe) is expected
            exact = [p for p in points if p.date == probe]
            if exact:
                assert series.at(probe) is exact[0]
            else:
                with pytest.raises(AnalysisError):
                    series.at(probe)

    def test_net_change(self):
        series = CompositionSeries()
        series.add_counts(dt.date(2022, 1, 1), 50, 25, 25)
        series.add_counts(dt.date(2022, 1, 8), 75, 15, 10)
        assert series.net_change("full") == pytest.approx(25.0)

    def test_empty_series_rejections(self):
        series = CompositionSeries()
        with pytest.raises(AnalysisError):
            series.first()
        with pytest.raises(AnalysisError):
            series.nearest(dt.date(2022, 1, 1))


class TestCollect:
    """The composition series the one per-day reduction produces."""

    def test_counts_conserved(self, tiny_world):
        collector = FastCollector(tiny_world)
        snapshots = list(collector.sweep("2022-02-01", "2022-03-15", 7))
        series = merge_full_sweep(
            [summarize_snapshot(snapshot) for snapshot in snapshots]
        ).ns_composition
        for snapshot, point in zip(snapshots, series):
            assert point.total == len(snapshot)

    def test_subset_restricts_total(self, tiny_world):
        collector = FastCollector(tiny_world)
        summaries = [
            summarize_snapshot(snapshot)
            for snapshot in collector.sweep("2022-02-01", "2022-02-15", 7)
        ]
        series = merge_recent_window([], summaries).sanctioned_composition
        assert all(point.total == 107 for point in series)

    def test_hosting_kind(self, tiny_world):
        collector = FastCollector(tiny_world)
        series = merge_full_sweep([
            summarize_snapshot(snapshot)
            for snapshot in collector.sweep("2022-02-01", "2022-02-08", 7)
        ]).hosting_composition
        # Hosting is overwhelmingly single-component: partial is rare.
        assert series.first().share("part") < 2.0

"""Tests for repro.core.tlddep: the NS-TLD series the summaries merge into."""

import datetime as dt

import pytest

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_full_sweep
from repro.core.tlddep import TldSharePoint, TldShareSeries
from repro.errors import AnalysisError
from repro.measurement.fast import FastCollector


@pytest.fixture(scope="module")
def snapshots(tiny_world):
    collector = FastCollector(tiny_world)
    return list(collector.sweep("2022-02-01", "2022-03-15", 7))


@pytest.fixture(scope="module")
def series(snapshots):
    return merge_full_sweep(
        [summarize_snapshot(snapshot) for snapshot in snapshots]
    )


@pytest.fixture(scope="module")
def shares(series):
    return series.tld_shares


class TestComposition:
    def test_totals_match_population(self, snapshots, series):
        for snapshot, point in zip(snapshots, series.tld_composition):
            assert point.total == len(snapshot)


class TestShares:
    def test_ru_dominates(self, shares):
        assert shares.last().share("ru") > 60.0

    def test_shares_can_exceed_100_in_sum(self, shares):
        # A domain with NS in two TLDs counts once per TLD.
        total = sum(
            shares.last().share(tld) for tld in shares.last().counts
        )
        assert total > 100.0

    def test_each_share_at_most_100(self, shares):
        for point in shares:
            for tld in point.counts:
                assert 0.0 <= point.share(tld) <= 100.0

    def test_top_tlds_ranked(self, shares):
        top = shares.top_tlds(3)
        assert top[0] == "ru"
        counts = shares.last().counts
        assert counts[top[0]] >= counts[top[1]] >= counts[top[2]]

    def test_share_series_length(self, snapshots, shares):
        assert len(shares.share_series("ru")) == len(snapshots)

    def test_tlds_seen(self, shares):
        seen = shares.tlds_seen()
        assert "ru" in seen and "com" in seen and "pro" in seen

    def test_point_share_missing_tld(self):
        point = TldSharePoint(dt.date(2022, 1, 1), 100, {"ru": 80})
        assert point.share("zz") == 0.0

    def test_chronological_enforced(self):
        series = TldShareSeries()
        series.add(TldSharePoint(dt.date(2022, 1, 2), 1, {}))
        with pytest.raises(AnalysisError):
            series.add(TldSharePoint(dt.date(2022, 1, 1), 1, {}))

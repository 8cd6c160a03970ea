"""Tests for repro.core.countrydist."""

import pytest

from repro.core.countrydist import collect_country_shares
from repro.errors import AnalysisError
from repro.measurement.fast import FastCollector


@pytest.fixture(scope="module")
def snapshots(tiny_world):
    collector = FastCollector(tiny_world)
    return list(collector.sweep("2022-02-22", "2022-04-01", 7))


class TestCollect:
    def test_ru_dominates_hosting(self, snapshots):
        series = collect_country_shares(snapshots, kind="hosting")
        assert series.first().share("RU") > 60.0

    def test_ns_kind(self, snapshots):
        series = collect_country_shares(snapshots, kind="ns")
        assert series.first().share("RU") > 60.0
        # Sweden present pre-Netnod-cutoff through rucenter_cloud.
        assert series.first().share("SE") > 0.5

    def test_sweden_vanishes_after_netnod(self, snapshots):
        series = collect_country_shares(snapshots, kind="ns")
        assert series.last().share("SE") < series.first().share("SE")

    def test_unknown_kind_rejected(self, snapshots):
        with pytest.raises(AnalysisError):
            collect_country_shares(snapshots, kind="galaxy")

    def test_shares_bounded(self, snapshots):
        series = collect_country_shares(snapshots, kind="hosting")
        for point in series:
            for country in point.counts:
                assert 0.0 <= point.share(country) <= 100.0

    def test_subset(self, snapshots):
        series = collect_country_shares(
            snapshots, kind="ns", subset_indices=range(107)
        )
        assert series.first().total == 107

    def test_net_change(self, snapshots):
        series = collect_country_shares(snapshots, kind="hosting")
        assert series.net_change("RU") == pytest.approx(
            series.last().share("RU") - series.first().share("RU")
        )

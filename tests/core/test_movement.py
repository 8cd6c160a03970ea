"""Tests for repro.core.movement."""

import datetime as dt

import pytest

from repro.core.movement import analyze_movement
from repro.core.topasn import asn_members
from repro.errors import AnalysisError
from repro.measurement.fast import FastCollector


@pytest.fixture(scope="module")
def collector(tiny_world):
    return FastCollector(tiny_world)


SEDO = 47846
FROM = dt.date(2022, 3, 8)
TO = dt.date(2022, 5, 25)


class TestAccounting:
    def test_partition_of_original_set(self, collector):
        report = analyze_movement(collector, SEDO, FROM, TO)
        assert report.original == report.remained + report.relocated + report.expired

    def test_original_matches_members(self, collector):
        report = analyze_movement(collector, SEDO, FROM, TO)
        snapshot = collector.collect(FROM)
        assert report.original == len(asn_members(snapshot, SEDO))

    def test_shares(self, collector):
        report = analyze_movement(collector, SEDO, FROM, TO)
        assert 0.0 <= report.remained_share <= 1.0
        assert report.remained_share + report.relocated_share <= 1.0

    def test_destinations_sum_to_relocated(self, collector):
        report = analyze_movement(collector, SEDO, FROM, TO)
        assert sum(report.relocation_destinations.values()) == report.relocated

    def test_inflow_split(self, collector):
        report = analyze_movement(collector, SEDO, FROM, TO)
        assert report.inflow_total == report.inflow_relocated + report.inflow_new

    def test_empty_window_rejected(self, collector):
        with pytest.raises(AnalysisError):
            analyze_movement(collector, SEDO, FROM, FROM)

    def test_top_destinations_ordering(self, collector):
        report = analyze_movement(collector, SEDO, FROM, TO)
        tops = report.top_destinations(3)
        counts = [count for _, count in tops]
        assert counts == sorted(counts, reverse=True)

    def test_destination_share(self, collector, tiny_world):
        report = analyze_movement(collector, SEDO, FROM, TO)
        serverel = tiny_world.catalog.get("serverel").primary_asn
        if report.relocated:
            assert 0.0 <= report.destination_share(serverel) <= 1.0

    def test_symmetric_window_consistency(self, collector, tiny_world):
        """Arrivals into Serverel include Sedo's leavers."""
        serverel = tiny_world.catalog.get("serverel").primary_asn
        sedo_report = analyze_movement(collector, SEDO, FROM, TO)
        serverel_report = analyze_movement(collector, serverel, FROM, TO)
        sedo_to_serverel = sedo_report.relocation_destinations.get(serverel, 0)
        assert serverel_report.inflow_relocated >= sedo_to_serverel

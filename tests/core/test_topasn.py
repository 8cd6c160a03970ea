"""Tests for repro.core.topasn: ASN membership and the merged ASN shares."""

import pytest

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_recent_window
from repro.core.topasn import asn_members
from repro.measurement.fast import FastCollector


@pytest.fixture(scope="module")
def setup(tiny_world):
    collector = FastCollector(tiny_world)
    snapshots = list(collector.sweep("2022-02-22", "2022-03-20", 7))
    return tiny_world, collector, snapshots


@pytest.fixture(scope="module")
def summaries(setup):
    return [summarize_snapshot(snapshot) for snapshot in setup[2]]


class TestMembers:
    def test_members_are_measured_domains(self, setup):
        world, collector, snapshots = setup
        snapshot = snapshots[0]
        members = asn_members(snapshot, 13335)
        assert set(members) <= set(snapshot.measured)

    def test_members_actually_in_asn(self, setup):
        world, collector, snapshots = setup
        snapshot = snapshots[0]
        for index in asn_members(snapshot, 13335)[:10]:
            plan = world.hosting_plans.plan(int(snapshot.hosting_ids[index]))
            assert 13335 in plan.asns()


class TestShares:
    def test_counts_and_shares_consistent(self, summaries):
        series = merge_recent_window([13335, 197695], summaries).asn_shares
        point = series.first()
        for asn in (13335, 197695):
            assert point.share(asn) == pytest.approx(
                100.0 * point.counts[asn] / point.total
            )

    def test_series_tracks_membership(self, setup, summaries):
        world, collector, snapshots = setup
        series = merge_recent_window([13335], summaries).asn_shares
        expected = [len(asn_members(s, 13335)) for s in snapshots]
        assert series.count_series(13335) == expected

    def test_untracked_asn_zero(self, summaries):
        series = merge_recent_window([13335], summaries).asn_shares
        assert series.first().share(99999) == 0.0

    def test_dual_homed_counted_in_both(self, setup, summaries):
        world, collector, snapshots = setup
        dual_asns = world.hosting_plans.plan(
            world.hosting_plans.id_of("dual_ru_de")
        ).asns()
        assert len(dual_asns) == 2
        snapshot = snapshots[0]
        dual_members = [
            int(i)
            for i in snapshot.measured
            if snapshot.hosting_ids[i] == world.hosting_plans.id_of("dual_ru_de")
        ]
        assert dual_members
        for asn in dual_asns:
            members = set(int(x) for x in asn_members(snapshot, asn))
            assert set(dual_members) <= members
            assert summaries[0].asn_counts[asn] == len(members)

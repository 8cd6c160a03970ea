"""Tests for repro.measurement.fast: the columnar collector."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement.fast import FastCollector


@pytest.fixture(scope="module")
def collector(tiny_world):
    return FastCollector(tiny_world)


class TestCollect:
    def test_measured_equals_active_on_normal_days(self, collector, tiny_world):
        snapshot = collector.collect("2020-06-01")
        assert (
            snapshot.measured
            == tiny_world.population.active_indices("2020-06-01")
        ).all()

    def test_snapshot_len(self, collector):
        snapshot = collector.collect("2020-06-01")
        assert len(snapshot) == len(snapshot.measured)

    def test_subset(self, collector):
        snapshot = collector.collect("2020-06-01")
        sanctioned = snapshot.subset(range(107))
        assert len(sanctioned) == 107

    def test_measurement_for_matches_world(self, collector, tiny_world):
        snapshot = collector.collect("2022-03-10")
        index = int(snapshot.measured[10])
        m = snapshot.measurement_for(index)
        assert m.domain == tiny_world.population.record(index).name
        assert set(m.ns_names) == set(
            tiny_world.ns_hostnames_for(index, "2022-03-10")
        )
        assert set(m.apex_addresses) == set(
            tiny_world.apex_addresses(index, "2022-03-10")
        )


class TestOutage:
    def test_outage_day_drops_coverage(self, collector, tiny_world):
        normal = collector.collect("2021-03-21")
        outage = collector.collect("2021-03-22")
        assert len(outage) < 0.8 * len(normal)

    def test_outage_is_deterministic(self, tiny_world):
        a = FastCollector(tiny_world).collect("2021-03-22")
        b = FastCollector(tiny_world).collect("2021-03-22")
        assert (a.measured == b.measured).all()

    def test_custom_outage_dates(self, tiny_world):
        collector = FastCollector(
            tiny_world, outage_dates=[dt.date(2020, 1, 1)], outage_coverage=0.5
        )
        assert len(collector.collect("2020-01-01")) < len(
            collector.collect("2020-01-02")
        )

    def test_bad_coverage_rejected(self, tiny_world):
        with pytest.raises(MeasurementError):
            FastCollector(tiny_world, outage_coverage=1.5)


class TestSweep:
    def test_sweep_matches_random_access(self, collector):
        swept = {
            s.date: s for s in collector.sweep("2022-02-20", "2022-03-10", 3)
        }
        for date, snapshot in swept.items():
            direct = collector.collect(date)
            assert (snapshot.measured == direct.measured).all()
            assert (
                snapshot.dns_ids[snapshot.measured]
                == direct.dns_ids[direct.measured]
            ).all()
            assert (
                snapshot.hosting_ids[snapshot.measured]
                == direct.hosting_ids[direct.measured]
            ).all()

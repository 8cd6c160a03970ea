"""Tests for repro.registry.zonefile: daily seed lists."""

import pytest

from repro.registry.population import DomainPopulation, PopulationConfig
from repro.registry.tld import TLD_RF, TLD_RU
from repro.registry.zonefile import ZoneFileService
from repro.timeline import STUDY_END, STUDY_START


@pytest.fixture(scope="module")
def service():
    return ZoneFileService(DomainPopulation(PopulationConfig(seed=3, initial_count=500)))


class TestSnapshot:
    def test_day_zero_size(self, service):
        assert len(service.snapshot(STUDY_START)) == 500

    def test_names_iterable(self, service):
        snapshot = service.snapshot(STUDY_START)
        names = snapshot.names()
        assert len(names) == len(snapshot)
        assert all(name.tld in (TLD_RU, TLD_RF) for name in names)

    def test_snapshots_differ_over_time(self, service):
        early = set(map(str, service.snapshot(STUDY_START).names()))
        late = set(map(str, service.snapshot(STUDY_END).names()))
        assert early != late

    def test_snapshot_carries_date(self, service):
        assert service.snapshot("2020-05-01").date.isoformat() == "2020-05-01"

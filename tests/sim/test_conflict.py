"""Tests for repro.sim.conflict: scenario assembly invariants."""

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.providers.catalog import standard_catalog
from repro.sim.conflict import (
    DNS_WEIGHTS,
    HOSTING_WEIGHTS,
    ConflictScenarioConfig,
    _dns_plans,
    _dns_weights_at,
    _weight_vector,
    build_world,
)


class TestConfig:
    def test_initial_count_scales(self):
        assert ConflictScenarioConfig(scale=250).initial_count == 19_800
        assert ConflictScenarioConfig(scale=2500).initial_count == 1_980

    def test_scale_factor(self):
        config = ConflictScenarioConfig(scale=495)
        assert config.scale_factor == pytest.approx(10_000 / 4_950_000)

    def test_scaled_counts_floor_at_one(self):
        config = ConflictScenarioConfig(scale=100_000)
        assert config.scaled(574) == 1

    def test_bad_scale_rejected(self):
        with pytest.raises(ScenarioError):
            ConflictScenarioConfig(scale=0)

    def test_bad_netnod_mode_rejected(self):
        with pytest.raises(ScenarioError):
            ConflictScenarioConfig(netnod_mode="teleport")

    def test_sanctioned_cert_scale_auto(self):
        tiny = ConflictScenarioConfig(scale=2500)
        bench = ConflictScenarioConfig(scale=250)
        assert 0.04 <= tiny.sanctioned_cert_scale <= bench.sanctioned_cert_scale <= 1.0


class TestWeights:
    def test_dns_weights_sum_to_100(self):
        assert sum(DNS_WEIGHTS.values()) == pytest.approx(100.0, abs=0.2)

    def test_hosting_weights_sum_to_100(self):
        assert sum(HOSTING_WEIGHTS.values()) == pytest.approx(100.0, abs=0.2)

    def test_drifted_weights_still_sum_to_100(self):
        for frac in (0.0, 0.33, 1.0):
            assert sum(_dns_weights_at(frac).values()) == pytest.approx(
                100.0, abs=0.2
            )

    def test_drifted_weights_nonnegative(self):
        assert all(v >= 0 for v in _dns_weights_at(1.0).values())

    def test_hosting_part_weight_matches_paper(self):
        assert HOSTING_WEIGHTS["dual_ru_de"] == pytest.approx(0.19)

    def test_weight_vector_rejects_bad_weights(self):
        table = _dns_plans(standard_catalog())
        assert _weight_vector(table, DNS_WEIGHTS).sum() == pytest.approx(1.0)
        unbalanced = dict(DNS_WEIGHTS, regru_dns=50.0)
        with pytest.raises(ScenarioError, match="sum to"):
            _weight_vector(table, unbalanced)
        missing = dict(DNS_WEIGHTS)
        del missing["regru_dns"]
        with pytest.raises(ScenarioError, match="missing"):
            _weight_vector(table, missing)


class TestDeterminism:
    def test_same_config_same_world(self):
        config = ConflictScenarioConfig(scale=5000, with_pki=False)
        a = build_world(config)
        b = build_world(config)
        assert (a.base_dns == b.base_dns).all()
        assert (a.base_hosting == b.base_hosting).all()
        assert (
            a.dns_state("2022-03-10") == b.dns_state("2022-03-10")
        ).all()


class TestSanctionedSetup:
    def test_waves_cover_107(self, tiny_world):
        dates = tiny_world.sanctions.listing_dates()
        assert len(dates) == 4
        assert len(
            tiny_world.sanctions.domains_listed_as_of(dates[-1])
        ) == 107

    def test_first_wave_on_invasion_day(self, tiny_world):
        assert tiny_world.sanctions.listing_dates()[0].isoformat() == "2022-02-24"

    def test_101_hosted_in_russia_pre_conflict(self, tiny_world):
        labels = tiny_world.epoch_at("2022-02-20").hosting_labels
        hosting = tiny_world.hosting_state("2022-02-20")
        full = sum(
            1 for i in range(107) if labels.geo_label[hosting[i]] == 0
        )
        assert full == 101

    def test_three_foreign_move_to_russia_by_study_end(self, tiny_world):
        labels_end = tiny_world.epoch_at("2022-05-25").hosting_labels
        hosting_end = tiny_world.hosting_state("2022-05-25")
        full_end = sum(
            1 for i in range(107) if labels_end.geo_label[hosting_end[i]] == 0
        )
        assert full_end == 104  # 101 + the three movers


class TestTransferMode:
    def test_transfer_mode_changes_geo_not_address(self):
        config = ConflictScenarioConfig(
            scale=5000, with_pki=False, netnod_mode="transfer"
        )
        world = build_world(config)
        before = world.epoch_at("2022-03-02")
        after = world.epoch_at("2022-03-03")
        address = before.ns_addresses["ns4-cloud.nic.ru"]
        assert after.ns_addresses["ns4-cloud.nic.ru"] == address
        assert before.geo.lookup(address) == "SE"
        assert after.geo.lookup(address) == "RU"
        assert after.routing.lookup(address) == 48287

    def test_transfer_mode_with_lag_delays_geo(self):
        config = ConflictScenarioConfig(
            scale=5000, with_pki=False, netnod_mode="transfer", geo_lag_days=14
        )
        world = build_world(config)
        address = world.epoch_at("2022-03-02").ns_addresses["ns4-cloud.nic.ru"]
        assert world.epoch_at("2022-03-05").geo.lookup(address) == "SE"
        assert world.epoch_at("2022-03-17").geo.lookup(address) == "RU"


class TestLazyRecords:
    def test_build_world_constructs_no_domain_records(self, monkeypatch):
        from repro.registry.domain import DomainRecord

        built = []
        original = DomainRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DomainRecord, "__init__", counting_init)
        world = build_world(ConflictScenarioConfig(scale=20000, with_pki=False))
        assert len(built) == 0
        population = world.population
        assert population.record(5) is population.record(5)
        assert len(built) == 1
        # The sanctions list names the reserved records without reading them.
        first = world.sanctions.all_domains()[0]
        assert population.by_name(first).index == 0

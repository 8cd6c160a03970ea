"""Tests for repro.sim.world using the tiny conflict world."""

import datetime as dt

import numpy as np
import pytest

from repro.sim.conflict import NETNOD_CUTOFF
from repro.timeline import STUDY_END, STUDY_START


class TestEpochs:
    def test_epoch_boundary_at_netnod(self, tiny_world):
        before = tiny_world.epoch_at(NETNOD_CUTOFF - dt.timedelta(days=1))
        after = tiny_world.epoch_at(NETNOD_CUTOFF)
        assert before is not after

    def test_cloud_ns_moves_country(self, tiny_world):
        before = tiny_world.epoch_at("2022-03-02")
        after = tiny_world.epoch_at("2022-03-03")
        old_address = before.ns_addresses["ns4-cloud.nic.ru"]
        new_address = after.ns_addresses["ns4-cloud.nic.ru"]
        assert old_address != new_address
        assert before.geo.lookup(old_address) == "SE"
        assert after.geo.lookup(new_address) == "RU"

    def test_stable_ns_untouched(self, tiny_world):
        before = tiny_world.epoch_at("2022-03-02")
        after = tiny_world.epoch_at("2022-03-03")
        assert (
            before.ns_addresses["ns1.reg.ru"] == after.ns_addresses["ns1.reg.ru"]
        )

    def test_epochs_chronological(self, tiny_world):
        days = [epoch.start_day for epoch in tiny_world.epochs()]
        assert days == sorted(days)


class TestStateAccess:
    def test_random_access_matches_sweep(self, tiny_world):
        dates = [dt.date(2019, 5, 1), dt.date(2022, 3, 10), STUDY_END]
        sweep_days = {
            day.date: (day.hosting_ids.copy(), day.dns_ids.copy())
            for day in tiny_world.sweep(STUDY_START, STUDY_END, 1)
            if day.date in dates
        }
        for date in dates:
            hosting, dns = sweep_days[date]
            assert (tiny_world.hosting_state(date) == hosting).all()
            assert (tiny_world.dns_state(date) == dns).all()

    def test_day_view_active_matches_population(self, tiny_world):
        view = tiny_world.day_view("2020-01-01")
        assert (
            view.active == tiny_world.population.active_indices("2020-01-01")
        ).all()

    def test_sweep_step(self, tiny_world):
        days = list(tiny_world.sweep("2022-01-01", "2022-01-31", 7))
        assert [d.date.day for d in days] == [1, 8, 15, 22, 29]


class TestPerDomainFacts:
    def test_apex_addresses_nonempty(self, tiny_world):
        addresses = tiny_world.apex_addresses(0, STUDY_START)
        assert addresses

    def test_ns_hostnames_for_sanctioned_cloud_domain(self, tiny_world):
        hostnames = tiny_world.ns_hostnames_for(0, "2022-02-01")
        assert "ns4-cloud.nic.ru" in hostnames

    def test_sanctioned_mask(self, tiny_world):
        assert list(tiny_world.sanctioned_indices) == list(range(107))

    def test_sanctions_list_has_107_domains(self, tiny_world):
        assert len(tiny_world.sanctions.all_domains()) == 107

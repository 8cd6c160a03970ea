"""Tests for repro.registry.whois."""

import pytest

from repro.dns.name import DomainName
from repro.errors import RegistryError
from repro.registry.population import DomainPopulation, PopulationConfig
from repro.registry.tld import TLD_RU
from repro.registry.whois import WhoisService
from repro.timeline import STUDY_START


@pytest.fixture(scope="module")
def setup():
    population = DomainPopulation(
        PopulationConfig(
            seed=5, initial_count=400, reserved_names=[("known-bank", TLD_RU)]
        )
    )
    return population, WhoisService(population)


class TestLookup:
    def test_known_domain(self, setup):
        population, whois = setup
        record = whois.lookup(DomainName.parse("known-bank.ru"))
        assert record.created == population.record(0).created_date
        assert record.registrar

    def test_unknown_domain_raises(self, setup):
        _, whois = setup
        with pytest.raises(RegistryError):
            whois.lookup(DomainName.parse("never-registered-zz.ru"))


class TestNewlyRegistered:
    def test_old_domain_not_new(self, setup):
        _, whois = setup
        assert not whois.is_newly_registered(
            DomainName.parse("known-bank.ru"), STUDY_START
        )

    def test_birth_detection(self, setup):
        population, whois = setup
        newborn = next(rec for rec in population if rec.created_day > 100)
        assert whois.is_newly_registered(newborn.name, rec_date(newborn))
        assert not whois.is_newly_registered(
            newborn.name, newborn.created_date.replace(year=2025)
        )


def rec_date(record):
    return record.created_date


class TestRedaction:
    def test_roughly_one_sixth_disclosed(self, setup):
        population, whois = setup
        disclosed = sum(
            1 for rec in population if whois.lookup(rec.name).registrant is not None
        )
        rate = disclosed / len(population)
        assert 0.08 < rate < 0.28  # paper: ~1/6

    def test_redaction_is_stable(self, setup):
        _, whois = setup
        name = DomainName.parse("known-bank.ru")
        assert whois.lookup(name).registrant == whois.lookup(name).registrant

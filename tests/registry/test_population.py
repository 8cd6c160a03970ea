"""Tests for repro.registry.population: churn dynamics and determinism."""

import hashlib

import numpy as np
import pytest

from repro.dns.name import DomainName
from repro.errors import RegistryError
from repro.registry.population import DomainPopulation, PopulationConfig
from repro.registry.tld import TLD_RF, TLD_RU
from repro.timeline import STUDY_END, STUDY_START


@pytest.fixture(scope="module")
def population():
    return DomainPopulation(PopulationConfig(seed=1, initial_count=2000))


class TestConfigValidation:
    def test_zero_initial_rejected(self):
        with pytest.raises(RegistryError):
            PopulationConfig(initial_count=0)

    def test_bad_rf_share_rejected(self):
        with pytest.raises(RegistryError):
            PopulationConfig(rf_share=1.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(RegistryError):
            PopulationConfig(daily_birth_rate=-0.1)


class TestDynamics:
    def test_initial_count_active_on_day_zero(self, population):
        # The initial cohort plus possibly a handful of day-0 births.
        active = population.active_count(STUDY_START)
        assert 2000 <= active <= 2010

    def test_population_grows_modestly(self, population):
        start = population.active_count(STUDY_START)
        end = population.active_count(STUDY_END)
        assert 0.9 * start < end < 1.35 * start

    def test_unique_to_concurrent_ratio(self, population):
        # Paper: 11.7 M unique vs ~5 M concurrent (~2.3x).
        ratio = population.unique_count() / population.active_count(STUDY_START)
        assert 1.7 < ratio < 3.0

    def test_rf_share(self, population):
        share = population.is_rf.mean()
        assert 0.02 < share < 0.07

    def test_names_unique(self, population):
        names = [str(rec.name) for rec in population]
        assert len(names) == len(set(names))

    def test_rf_names_are_alabels(self, population):
        rf_records = [rec for rec in population if rec.name.tld == TLD_RF]
        assert rf_records, "expected some .рф registrations"
        for rec in rf_records[:20]:
            assert str(rec.name).endswith(".xn--p1ai")
            assert str(rec.name).split(".")[0].startswith("xn--")

    def test_only_study_tlds(self, population):
        assert {rec.name.tld for rec in population} == {TLD_RU, TLD_RF}

    def test_tld_column_matches_records(self, population):
        assert population.tld.tolist() == [
            rec.name.tld.encode("ascii") for rec in population
        ]
        assert (population.is_rf == (population.tld == b"xn--p1ai")).all()

    def test_active_indices_match_mask(self, population):
        date = STUDY_START
        indices = population.active_indices(date)
        mask = population.active_mask(date)
        assert (np.flatnonzero(mask) == indices).all()


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = DomainPopulation(PopulationConfig(seed=7, initial_count=300))
        b = DomainPopulation(PopulationConfig(seed=7, initial_count=300))
        assert [str(r.name) for r in a] == [str(r.name) for r in b]
        assert (a.created == b.created).all()
        assert (a.deleted == b.deleted).all()

    def test_different_seed_differs(self):
        a = DomainPopulation(PopulationConfig(seed=7, initial_count=300))
        b = DomainPopulation(PopulationConfig(seed=8, initial_count=300))
        assert [str(r.name) for r in a] != [str(r.name) for r in b]


class TestReservedNames:
    def test_reserved_occupy_first_indices(self):
        config = PopulationConfig(
            seed=1,
            initial_count=100,
            reserved_names=[("bank-alpha", TLD_RU), ("bank-beta", TLD_RU)],
        )
        population = DomainPopulation(config)
        assert str(population.record(0).name) == "bank-alpha.ru"
        assert str(population.record(1).name) == "bank-beta.ru"

    def test_reserved_never_deleted(self):
        config = PopulationConfig(
            seed=1, initial_count=100, reserved_names=[("bank-alpha", TLD_RU)]
        )
        population = DomainPopulation(config)
        assert population.record(0).is_active(STUDY_END)

    def test_by_name(self):
        config = PopulationConfig(
            seed=1, initial_count=50, reserved_names=[("bank-alpha", TLD_RU)]
        )
        population = DomainPopulation(config)
        from repro.dns.name import DomainName

        assert population.by_name(DomainName.parse("bank-alpha.ru")).index == 0
        with pytest.raises(RegistryError):
            population.by_name(DomainName.parse("not-registered-ever.ru"))


# sha256 over every record's (name, created, deleted, registrar, registrant)
# and the created/deleted/tld columns of the 1:2500 population below,
# computed on the per-record generator this columnar one replaced.
POPULATION_PIN = "001da2874cbf28dd4624be86ca677b7b4a0de8e036e24a7eb0410a6b99f608f3"


class TestColumns:
    @pytest.fixture(scope="class")
    def pinned(self):
        from repro.sim.conflict import ConflictScenarioConfig

        reserved = [(f"sanctioned-entity-{i:03d}", TLD_RU) for i in range(107)]
        return DomainPopulation(
            PopulationConfig(
                initial_count=ConflictScenarioConfig(scale=2500).initial_count,
                reserved_names=reserved + [("Пример", "рф")],
            )
        )

    def test_population_pin(self, pinned):
        digest = hashlib.sha256()
        for rec in pinned:
            digest.update(
                f"{rec.name}\t{rec.created_day}\t{rec.deleted_day}\t"
                f"{rec.registrar}\t{rec.registrant}\n".encode()
            )
        for column in (pinned.created, pinned.deleted, pinned.tld):
            digest.update(column.dtype.str.encode())
            digest.update(column.tobytes())
        assert digest.hexdigest() == POPULATION_PIN

    def test_records_built_on_first_read_and_cached(self):
        population = DomainPopulation(PopulationConfig(seed=2, initial_count=50))
        assert population._records == [None] * len(population)
        first = population.record(3)
        assert population.record(3) is first
        assert population.record(-1) is population.record(len(population) - 1)
        assert population.record(np.int64(3)) is first
        assert sum(rec is not None for rec in population._records) == 2
        assert list(population)[3] is first

    def test_name_equals_record_name(self, pinned):
        names = [pinned.name(index) for index in range(len(pinned))]
        assert names == [rec.name for rec in pinned]
        # Both TLDs are covered, and every .рф label is punycode.
        assert pinned.is_rf.any() and not pinned.is_rf.all()
        assert all(
            name.labels[0].startswith("xn--")
            for name, rf in zip(names, pinned.is_rf)
            if rf
        )

    def test_name_keeps_nothing(self):
        population = DomainPopulation(PopulationConfig(seed=2, initial_count=50))
        assert population.name(3) == population.name(3)
        assert population.name(-1) == population.record(len(population) - 1).name
        assert population._records == [None] * (len(population) - 1) + [
            population.record(-1)
        ]

    def test_unicode_reserved_name_encoded(self, pinned):
        rec = pinned.record(107)
        assert rec.name == DomainName.parse("пример.рф")
        assert pinned.tld[107] == b"xn--p1ai" and pinned.is_rf[107]

    def test_by_name_finds_every_record(self, pinned):
        for rec in pinned:
            assert pinned.by_name(rec.name) is rec
        assert pinned.by_name(DomainName.parse("ПРИМЕР.рф")).index == 107

"""Tests for repro.sanctions: entities, designations, list queries."""

import datetime as dt

import pytest

from repro.dns.name import DomainName
from repro.errors import ScenarioError
from repro.sanctions.entity import Designation, SanctionedEntity, SanctionsAuthority
from repro.sanctions.lists import SanctionsList


def name(text):
    return DomainName.parse(text)


@pytest.fixture
def sanctions():
    bank = SanctionedEntity(
        "Big Bank",
        [name("bigbank.ru"), name("bigbank-online.ru")],
        [Designation(SanctionsAuthority.US_OFAC_SDN, "2022-02-24")],
    )
    corp = SanctionedEntity(
        "State Corp",
        [name("statecorp.ru")],
        [
            Designation(SanctionsAuthority.US_OFAC_SDN, "2022-03-11"),
            Designation(SanctionsAuthority.UK_SANCTIONS_LIST, "2022-03-24"),
        ],
    )
    return SanctionsList([bank, corp])


class TestEntity:
    def test_listed_on_earliest(self, sanctions):
        corp = sanctions.entities()[1]
        assert corp.listed_on() == dt.date(2022, 3, 11)


class TestList:
    def test_all_domains(self, sanctions):
        assert len(sanctions.all_domains()) == 3

    def test_listed_as_of(self, sanctions):
        assert len(sanctions.domains_listed_as_of("2022-02-24")) == 2
        assert len(sanctions.domains_listed_as_of("2022-03-11")) == 3

    def test_is_sanctioned(self, sanctions):
        assert name("bigbank.ru") in sanctions.all_domains()
        assert name("innocent.ru") not in sanctions.all_domains()

    def test_is_sanctioned_with_date(self, sanctions):
        corp = name("statecorp.ru")
        assert corp not in sanctions.domains_listed_as_of("2022-03-01")
        assert corp in sanctions.domains_listed_as_of("2022-03-12")

    def test_listing_dates(self, sanctions):
        assert sanctions.listing_dates() == [
            dt.date(2022, 2, 24),
            dt.date(2022, 3, 11),
        ]

    def test_duplicate_attribution_rejected(self):
        shared = name("shared.ru")
        a = SanctionedEntity(
            "A", [shared], [Designation(SanctionsAuthority.US_OFAC_SDN, "2022-02-24")]
        )
        b = SanctionedEntity(
            "B", [shared], [Designation(SanctionsAuthority.US_OFAC_SDN, "2022-02-24")]
        )
        with pytest.raises(ScenarioError):
            SanctionsList([a, b])

"""Tests for repro.pki.crl."""

import datetime as dt

import pytest

from repro.errors import RevocationError
from repro.pki.crl import CertificateRevocationList, RevocationReason


@pytest.fixture
def crl():
    return CertificateRevocationList("DigiCert")


class TestEntries:
    def test_add_and_query(self, crl):
        crl.add(5, "2022-03-01", RevocationReason.KEY_COMPROMISE)
        assert crl.is_revoked(5)
        assert [entry.reason for entry in crl.entries()] == [
            RevocationReason.KEY_COMPROMISE
        ]

    def test_unknown_serial_not_revoked(self, crl):
        assert not crl.is_revoked(99)

    def test_double_add_rejected(self, crl):
        crl.add(5, "2022-03-01")
        with pytest.raises(RevocationError):
            crl.add(5, "2022-03-02")

    def test_as_of_date(self, crl):
        crl.add(5, "2022-03-01")
        assert not crl.is_revoked(5, at="2022-02-28")
        assert crl.is_revoked(5, at="2022-03-01")

    def test_entries_sorted(self, crl):
        crl.add(9, "2022-03-05")
        crl.add(2, "2022-03-01")
        crl.add(7, "2022-03-01")
        entries = crl.entries()
        assert [(e.serial, e.revoked_on) for e in entries] == [
            (2, dt.date(2022, 3, 1)),
            (7, dt.date(2022, 3, 1)),
            (9, dt.date(2022, 3, 5)),
        ]

    def test_len(self, crl):
        crl.add(1, "2022-03-01")
        assert len(crl) == 1

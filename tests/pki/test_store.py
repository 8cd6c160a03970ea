"""Tests for repro.pki.store."""

import datetime as dt

import pytest

from repro.pki.ca import CertificateAuthority
from repro.pki.store import CertificateStore


@pytest.fixture
def setup():
    le = CertificateAuthority("le", "Let's Encrypt", "US")
    dc = CertificateAuthority("dc", "DigiCert", "US")
    store = CertificateStore()
    certs = [
        le.issue(["a.ru"], "2022-01-01", validity_days=90),
        le.issue(["b.com"], "2022-01-05", validity_days=90),
        le.issue(["пример.рф"], "2022-02-01", validity_days=90),
        dc.issue(["c.ru"], "2021-06-01", validity_days=180),
    ]
    for cert in certs:
        store.add(cert)
    return store, certs


class TestIndexing:
    def test_len(self, setup):
        store, _ = setup
        assert len(store) == 4

    def test_duplicate_ignored(self, setup):
        store, certs = setup
        store.add(certs[0])
        assert len(store) == 4

    def test_by_fingerprint(self, setup):
        store, certs = setup
        assert store.by_fingerprint(certs[0].fingerprint) is certs[0]
        assert store.by_fingerprint("nope") is None


class TestQueries:
    def test_matching_tlds(self, setup):
        store, _ = setup
        matched = store.filter(lambda cert: cert.secures_tld(("ru", "xn--p1ai")))
        assert len(matched) == 3

    def test_issued_between(self, setup):
        store, _ = setup
        hits = store.issued_between("2022-01-01", "2022-01-31")
        assert len(hits) == 2

    def test_validity_ending_after(self, setup):
        store, _ = setup
        # The DigiCert cert expired 2021-11-28; the rest end in 2022.
        survivors = store.filter(
            lambda cert: cert.not_after > dt.date(2022, 2, 25)
        )
        assert len(survivors) == 3

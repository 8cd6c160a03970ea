"""Tests for repro.scanner.tls."""

import datetime as dt

import pytest

from repro.pki.ca import CertificateAuthority
from repro.scanner.tls import TlsScanner


@pytest.fixture
def serving():
    ca = CertificateAuthority("le", "Let's Encrypt", "US")
    certs = {
        address: ca.issue([f"site{address}.ru"], "2022-01-01")
        for address in range(1000, 1200)
    }

    def view(date):
        return list(certs.items())

    return view, certs


class TestScan:
    def test_coverage_below_full(self, serving):
        view, certs = serving
        scanner = TlsScanner(view, response_rate=0.85)
        records = list(scanner.scan("2022-03-01"))
        assert 0.6 * len(certs) < len(records) < len(certs)

    def test_full_coverage(self, serving):
        view, certs = serving
        scanner = TlsScanner(view, response_rate=1.0)
        assert len(list(scanner.scan("2022-03-01"))) == len(certs)

    def test_deterministic_same_day(self, serving):
        view, _ = serving
        scanner = TlsScanner(view)
        a = [(r.address, r.certificate.fingerprint) for r in scanner.scan("2022-03-01")]
        b = [(r.address, r.certificate.fingerprint) for r in scanner.scan("2022-03-01")]
        assert a == b

    def test_coverage_varies_across_weeks(self, serving):
        view, _ = serving
        scanner = TlsScanner(view, response_rate=0.7)
        week1 = {r.address for r in scanner.scan("2022-03-01")}
        week4 = {r.address for r in scanner.scan("2022-03-22")}
        assert week1 != week4

    def test_record_fields(self, serving):
        view, certs = serving
        scanner = TlsScanner(view, response_rate=1.0)
        record = list(scanner.scan("2022-03-01"))[0]
        assert record.date == dt.date(2022, 3, 1)
        assert record.certificate is certs[record.address]

    def test_bad_rate_rejected(self, serving):
        view, _ = serving
        with pytest.raises(ValueError):
            TlsScanner(view, response_rate=0.0)

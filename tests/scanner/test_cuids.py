"""Tests for repro.scanner.cuids: the accumulated scan dataset."""

import datetime as dt

import pytest

from repro.pki.ca import CaPolicy, CertificateAuthority
from repro.scanner.cuids import UniversalScanDataset
from repro.scanner.tls import TlsScanner


@pytest.fixture
def world():
    le = CertificateAuthority("le", "Let's Encrypt", "US")
    russian = CertificateAuthority(
        "ru", "Russian Trusted Root CA", "RU",
        CaPolicy(ct_logging=False, brands=("Russian Sub",)),
    )
    le_cert = le.issue(["normal.ru"], "2022-01-01")
    state_cert = russian.issue(["sberbank-like.ru"], "2022-03-05")

    def view(date):
        yield 100, le_cert
        if date >= dt.date(2022, 3, 10):  # installed later
            yield 200, state_cert

    return view, le_cert, state_cert


class TestIngest:
    def test_run_sweeps_accumulates(self, world):
        view, le_cert, state_cert = world
        dataset = UniversalScanDataset()
        dataset.run_sweeps(TlsScanner(view, response_rate=1.0),
                           "2022-03-01", "2022-03-29", step=7)
        assert len(dataset) == 2

    def test_first_seen_tracks_install_date(self, world):
        view, _, state_cert = world
        dataset = UniversalScanDataset()
        scanner = TlsScanner(view, response_rate=1.0)
        dataset.run_sweeps(scanner, "2022-03-01", "2022-03-08", step=7)
        assert state_cert not in dataset.certificates()
        dataset.run_sweeps(scanner, "2022-03-15", "2022-03-15")
        assert state_cert in dataset.certificates()

    def test_partial_coverage_catches_up(self, world):
        view, _, state_cert = world
        dataset = UniversalScanDataset()
        dataset.run_sweeps(TlsScanner(view, response_rate=0.5),
                           "2022-03-01", "2022-05-15", step=7)
        # With many weekly sweeps, everything is eventually observed.
        assert len(dataset) == 2


class TestQueries:
    def test_chained_to_organization(self, world):
        view, _, state_cert = world
        dataset = UniversalScanDataset()
        dataset.run_sweeps(TlsScanner(view, response_rate=1.0),
                           "2022-03-01", "2022-03-29", step=7)
        observed = dataset.chained_to_organization("Russian Trusted Root CA")
        assert observed == [state_cert]

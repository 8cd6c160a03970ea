"""Tests for repro.ctlog.monitor."""

import datetime as dt

import pytest

from repro.ctlog.log import CtLog
from repro.ctlog.monitor import CtMonitor
from repro.pki.ca import CertificateAuthority


@pytest.fixture
def setup():
    ca = CertificateAuthority("le", "Let's Encrypt", "US")
    logs = [CtLog("argon"), CtLog("xenon")]
    matcher = lambda cert: cert.secures_tld(("ru", "xn--p1ai"))
    monitor = CtMonitor(logs, matcher)
    return ca, logs, monitor


class TestMatching:
    def test_only_matching_certs_retained(self, setup):
        ca, logs, monitor = setup
        logs[0].add_chain(ca.issue(["example.ru"], "2022-01-01"), "2022-01-01")
        logs[0].add_chain(ca.issue(["example.com"], "2022-01-01"), "2022-01-01")
        logs[1].add_chain(ca.issue(["пример.рф"], "2022-01-02"), "2022-01-02")
        assert monitor.poll() == 2
        assert len(monitor.store) == 2

    def test_incremental_poll(self, setup):
        ca, logs, monitor = setup
        logs[0].add_chain(ca.issue(["a.ru"], "2022-01-01"), "2022-01-01")
        assert monitor.poll() == 1
        assert monitor.poll() == 0
        logs[0].add_chain(ca.issue(["b.ru"], "2022-01-02"), "2022-01-02")
        assert monitor.poll() == 1

    def test_daily_issuer_matrix(self, setup):
        ca, logs, monitor = setup
        logs[0].add_chain(ca.issue(["a.ru"], "2022-01-01"), "2022-01-01")
        logs[0].add_chain(ca.issue(["b.ru"], "2022-01-01"), "2022-01-01")
        monitor.poll()
        matrix = monitor.daily_issuer_matrix()
        assert matrix["Let's Encrypt"][dt.date(2022, 1, 1)] == 2

    def test_default_matcher_accepts_all(self):
        ca = CertificateAuthority("le", "Let's Encrypt", "US")
        log = CtLog("argon")
        log.add_chain(ca.issue(["example.com"], "2022-01-01"), "2022-01-01")
        monitor = CtMonitor([log])
        assert monitor.poll() == 1

"""Tests for repro.core.issuance."""

import datetime as dt

import pytest

from repro.core.issuance import (
    daily_issuance_average,
    issuance_by_phase,
    issuance_timelines,
    top_issuers_table,
)
from repro.ctlog.log import CtLog
from repro.ctlog.monitor import CtMonitor
from repro.errors import AnalysisError
from repro.pki.ca import CertificateAuthority
from repro.timeline import Phase


@pytest.fixture
def monitor():
    le = CertificateAuthority("le", "Let's Encrypt", "US")
    digicert = CertificateAuthority("dc", "DigiCert", "US")
    log = CtLog("argon")
    # Pre-conflict: 3 LE + 1 DigiCert; pre-sanctions: 2 LE + 1 DigiCert;
    # post-sanctions: 1 LE.
    for day in ("2022-01-10", "2022-01-11", "2022-02-01"):
        log.add_chain(le.issue(["a.ru"], day), day)
    for day in ("2022-01-15", "2022-03-10"):
        log.add_chain(digicert.issue(["b.ru"], day), day)
    for day in ("2022-03-01", "2022-03-12"):
        log.add_chain(le.issue(["c.ru"], day), day)
    log.add_chain(le.issue(["d.ru"], "2022-04-15"), "2022-04-15")
    monitor = CtMonitor([log], lambda cert: cert.secures_tld(("ru", "xn--p1ai")))
    monitor.poll()
    return monitor


class TestPhases:
    def test_counts_per_phase(self, monitor):
        phases = issuance_by_phase(monitor)
        assert phases[Phase.PRE_CONFLICT].total == 4
        assert phases[Phase.PRE_SANCTIONS].total == 3
        assert phases[Phase.POST_SANCTIONS].total == 1

    def test_digicert_in_pre_sanctions(self, monitor):
        phases = issuance_by_phase(monitor)
        assert phases[Phase.PRE_SANCTIONS].counts.get("DigiCert") == 1

    def test_shares(self, monitor):
        phases = issuance_by_phase(monitor)
        assert phases[Phase.PRE_CONFLICT].share("Let's Encrypt") == 75.0

    def test_window_clipping(self, monitor):
        phases = issuance_by_phase(
            monitor, window_start=dt.date(2022, 3, 1), window_end=dt.date(2022, 3, 31)
        )
        assert phases[Phase.PRE_CONFLICT].total == 0
        assert phases[Phase.PRE_SANCTIONS].total == 3


class TestTable:
    def test_other_cas_row(self, monitor):
        table = top_issuers_table(issuance_by_phase(monitor), k=1)
        rows = table[Phase.PRE_CONFLICT]
        assert rows[0][0] == "Let's Encrypt"
        assert rows[-1][0] == "Other CAs"
        assert rows[-1][1] == 1  # DigiCert folded into Other

    def test_daily_average(self, monitor):
        averages = daily_issuance_average(issuance_by_phase(monitor))
        assert averages[Phase.PRE_CONFLICT] == pytest.approx(4 / 54, rel=0.01)


class TestTimelines:
    def test_top_k_ordering(self, monitor):
        timelines = issuance_timelines(monitor, top_k=2)
        assert [t.issuer for t in timelines] == ["Let's Encrypt", "DigiCert"]

    def test_active_days(self, monitor):
        timelines = {t.issuer: t for t in issuance_timelines(monitor)}
        digicert = timelines["DigiCert"]
        assert sorted(digicert.daily_counts) == [
            dt.date(2022, 1, 15), dt.date(2022, 3, 10),
        ]

    def test_stopped_before(self, monitor):
        timelines = {t.issuer: t for t in issuance_timelines(monitor)}
        after = (dt.date(2022, 3, 26), dt.date(2022, 5, 25))
        assert timelines["DigiCert"].active_day_share(*after) == 0.0
        assert timelines["Let's Encrypt"].active_day_share(*after) > 0.0

    def test_gap_after(self, monitor):
        timelines = {t.issuer: t for t in issuance_timelines(monitor)}
        digicert, le = timelines["DigiCert"], timelines["Let's Encrypt"]
        assert digicert.active_day_share(
            dt.date(2022, 3, 15), dt.date(2022, 4, 14)
        ) == 0.0
        assert le.active_day_share(dt.date(2022, 3, 1), dt.date(2022, 3, 31)) > 0.0

    def test_bad_top_k(self, monitor):
        with pytest.raises(AnalysisError):
            issuance_timelines(monitor, top_k=0)

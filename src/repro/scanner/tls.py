"""Internet-wide TLS scanning (the Censys CUIDS equivalent).

A scan sweeps every live HTTPS endpoint and records the certificate each
one serves.  Certificates that never touch CT logs — the Russian Trusted
Root CA's — are visible *only* through this path, which is exactly why the
paper needs scan data for its Section 4.3 analysis.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Iterable, Iterator, Optional, Tuple

from ..pki.certificate import Certificate
from ..rng import stable_hash
from ..timeline import DateLike, as_date

__all__ = ["ScanRecord", "TlsScanner"]

#: A provider of "who serves what": (date) -> iterable of (address, cert).
ServingView = Callable[[_dt.date], Iterable[Tuple[int, Certificate]]]


class ScanRecord:
    """One (date, address, certificate) observation."""

    __slots__ = ("date", "address", "certificate")

    def __init__(self, date: _dt.date, address: int, certificate: Certificate) -> None:
        self.date = date
        self.address = address
        self.certificate = certificate

    def __repr__(self) -> str:
        return f"ScanRecord({self.date} {self.address} {self.certificate.subject_cn})"


class TlsScanner:
    """Scans the simulated Internet once per call.

    ``response_rate`` models hosts that drop scanner traffic; whether a
    given host responds is a stable function of (address, date-week), so
    coverage is realistic but runs stay deterministic.
    """

    def __init__(self, view: ServingView, response_rate: float = 0.85) -> None:
        if not 0.0 < response_rate <= 1.0:
            raise ValueError(f"response_rate out of (0, 1]: {response_rate}")
        self._view = view
        self._response_rate = response_rate

    def _responds(self, address: int, date: _dt.date) -> bool:
        week = date.toordinal() // 7
        draw = stable_hash("tls-scan", str(address), str(week)) % 1_000_003
        return draw / 1_000_003.0 < self._response_rate

    def scan(self, date: DateLike) -> Iterator[ScanRecord]:
        """Yield one record per responding endpoint."""
        scan_date = as_date(date)
        for address, certificate in self._view(scan_date):
            if self._responds(address, scan_date):
                yield ScanRecord(scan_date, address, certificate)

"""The accumulated universal-scan dataset (Censys CUIDS equivalent).

Aggregates daily :class:`~repro.scanner.tls.TlsScanner` sweeps into a
queryable history of which certificates were *in active use*.  As the
paper notes, active scans are a lower bound on issuance — far more
certificates are issued than are ever observed serving.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Dict, Iterable, List

from ..pki.certificate import Certificate
from ..timeline import DateLike, iter_days
from .tls import ScanRecord, TlsScanner

__all__ = ["UniversalScanDataset"]


class UniversalScanDataset:
    """An append-only index of scan observations."""

    def __init__(self) -> None:
        self._by_fingerprint: Dict[str, Certificate] = {}
        self._first_seen: Dict[str, _dt.date] = {}

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def ingest(self, records: Iterable[ScanRecord]) -> None:
        """Add one day's scan records."""
        for record in records:
            fp = record.certificate.fingerprint
            if fp not in self._by_fingerprint:
                self._by_fingerprint[fp] = record.certificate
                self._first_seen[fp] = record.date

    def run_sweeps(
        self,
        scanner: TlsScanner,
        start: DateLike,
        end: DateLike,
        step: int = 1,
    ) -> None:
        """Scan every ``step`` days in [start, end] and ingest results."""
        for date in iter_days(start, end, step):
            self.ingest(scanner.scan(date))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def certificates(self) -> List[Certificate]:
        """Every certificate ever observed serving."""
        return list(self._by_fingerprint.values())

    def observed(
        self, predicate: Callable[[Certificate], bool]
    ) -> List[Certificate]:
        """Observed certificates satisfying ``predicate``."""
        return [cert for cert in self._by_fingerprint.values() if predicate(cert)]

    def chained_to_organization(self, organization: str) -> List[Certificate]:
        """Observed certificates whose chain includes ``organization``.

        The Section 4.3 query: certificates containing the Russian
        Trusted Root CA in their chain.
        """
        return self.observed(
            lambda cert: cert.chain_contains_organization(organization)
        )

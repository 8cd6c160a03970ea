"""A queryable index of issued certificates (the Censys-index equivalent).

The analysis layer queries it the way the paper queries Censys' CT
index: by issuance window, or by any predicate over a certificate.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..timeline import DateLike, as_date
from .certificate import Certificate

__all__ = ["CertificateStore"]


class CertificateStore:
    """An append-only collection of end-entity certificates."""

    def __init__(self) -> None:
        self._certificates: List[Certificate] = []
        self._by_fingerprint: Dict[str, Certificate] = {}

    def __len__(self) -> int:
        return len(self._certificates)

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self._certificates)

    def add(self, certificate: Certificate) -> None:
        """Index a certificate; duplicates (same fingerprint) are ignored."""
        if certificate.fingerprint in self._by_fingerprint:
            return
        self._by_fingerprint[certificate.fingerprint] = certificate
        self._certificates.append(certificate)

    def by_fingerprint(self, fingerprint: str) -> Optional[Certificate]:
        """Certificate with the given fingerprint, or None."""
        return self._by_fingerprint.get(fingerprint)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def filter(
        self, predicate: Callable[[Certificate], bool]
    ) -> List[Certificate]:
        """All certificates satisfying ``predicate``."""
        return [cert for cert in self._certificates if predicate(cert)]

    def issued_between(
        self, start: DateLike, end: DateLike
    ) -> List[Certificate]:
        """Certificates with not_before in [start, end]."""
        lo, hi = as_date(start), as_date(end)
        return self.filter(lambda cert: lo <= cert.not_before <= hi)

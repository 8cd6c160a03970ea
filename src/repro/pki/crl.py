"""Certificate revocation lists."""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Dict, List, Optional

from ..errors import RevocationError
from ..timeline import DateLike, as_date

__all__ = ["RevocationReason", "RevokedEntry", "CertificateRevocationList"]


class RevocationReason(enum.Enum):
    """RFC 5280 reason codes the simulation uses."""

    UNSPECIFIED = 0
    KEY_COMPROMISE = 1
    AFFILIATION_CHANGED = 3
    SUPERSEDED = 4
    CESSATION_OF_OPERATION = 5
    PRIVILEGE_WITHDRAWN = 9

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


class RevokedEntry:
    """One CRL entry."""

    __slots__ = ("serial", "revoked_on", "reason")

    def __init__(
        self, serial: int, revoked_on: DateLike, reason: RevocationReason
    ) -> None:
        self.serial = serial
        self.revoked_on = as_date(revoked_on)
        self.reason = reason

    def __repr__(self) -> str:
        return f"RevokedEntry(#{self.serial} on {self.revoked_on} ({self.reason}))"


class CertificateRevocationList:
    """The CRL of one issuing CA."""

    def __init__(self, issuer_organization: str) -> None:
        self.issuer_organization = issuer_organization
        self._entries: Dict[int, RevokedEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        serial: int,
        revoked_on: DateLike,
        reason: RevocationReason = RevocationReason.UNSPECIFIED,
    ) -> RevokedEntry:
        """Record a revocation; double revocation is an error."""
        if serial in self._entries:
            raise RevocationError(
                f"serial {serial} already revoked by {self.issuer_organization}"
            )
        entry = RevokedEntry(serial, revoked_on, reason)
        self._entries[serial] = entry
        return entry

    def is_revoked(self, serial: int, at: Optional[DateLike] = None) -> bool:
        """True when ``serial`` is revoked (as of ``at``, when given)."""
        entry = self._entries.get(serial)
        if entry is None:
            return False
        if at is None:
            return True
        return entry.revoked_on <= as_date(at)

    def entries(self) -> List[RevokedEntry]:
        """All entries, ordered by revocation date then serial."""
        return sorted(
            self._entries.values(), key=lambda e: (e.revoked_on, e.serial)
        )

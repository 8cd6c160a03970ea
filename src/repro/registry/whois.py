"""A whois lookup service over the simulated registry.

The paper uses Cisco's Whois Domain API to decide whether domains that
appeared in a provider's network were *newly registered* or merely
relocated, and notes registrant information was only available for about a
sixth of queried names.  Both behaviours are reproduced here.
"""

from __future__ import annotations

import datetime as _dt
from typing import Optional

from ..dns.name import DomainName
from ..errors import RegistryError
from ..rng import stable_hash
from ..timeline import DateLike, as_date
from .domain import DomainRecord
from .population import DomainPopulation

__all__ = ["WhoisRecord", "WhoisService"]


class WhoisRecord:
    """The subset of whois data the analysis consumes."""

    __slots__ = ("name", "created", "registrar", "registrant")

    def __init__(
        self,
        name: DomainName,
        created: _dt.date,
        registrar: str,
        registrant: Optional[str],
    ) -> None:
        self.name = name
        self.created = created
        self.registrar = registrar
        self.registrant = registrant  # None when the registry redacts it

    def __repr__(self) -> str:
        return f"WhoisRecord({self.name}, created {self.created})"


class WhoisService:
    """Whois over the registry, with realistic registrant redaction."""

    #: Fraction of lookups that return registrant data (paper: ~1/6).
    REGISTRANT_DISCLOSURE_RATE = 1.0 / 6.0

    def __init__(self, population: DomainPopulation) -> None:
        self._population = population

    def _find(self, name: DomainName) -> Optional[DomainRecord]:
        try:
            return self._population.by_name(name)
        except RegistryError:
            return None

    def lookup(self, name: DomainName) -> WhoisRecord:
        """Whois data for ``name``; raises for never-registered names."""
        record = self._find(name)
        if record is None:
            raise RegistryError(f"whois: no such domain {name}")
        return self._to_whois(record)

    def is_newly_registered(self, name: DomainName, since: DateLike) -> bool:
        """True when ``name`` was first registered on/after ``since``."""
        record = self._find(name)
        if record is None:
            raise RegistryError(f"whois: no such domain {name}")
        return record.created_date >= as_date(since)

    def _to_whois(self, record: DomainRecord) -> WhoisRecord:
        disclose = (
            stable_hash("whois-disclosure", str(record.name)) % 1_000_003
        ) / 1_000_003.0 < self.REGISTRANT_DISCLOSURE_RATE
        return WhoisRecord(
            record.name,
            record.created_date,
            record.registrar,
            record.registrant if disclose else None,
        )

"""Sanctions list assembly and queries.

The paper labels 107 unique domains as sanctioned based on the US OFAC SDN
and UK sanctions lists; designations arrived in waves through spring 2022,
so "the sanctioned set" is date-dependent.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, Iterator, List, Sequence

from ..dns.name import DomainName
from ..errors import ScenarioError
from ..timeline import DateLike, as_date
from .entity import SanctionedEntity

__all__ = ["SanctionsList"]


class SanctionsList:
    """The merged view over all sanctioning authorities."""

    def __init__(self, entities: Sequence[SanctionedEntity]) -> None:
        self._entities = list(entities)
        self._by_domain: Dict[DomainName, SanctionedEntity] = {}
        for entity in self._entities:
            for domain in entity.domains:
                if domain in self._by_domain:
                    raise ScenarioError(
                        f"domain {domain} attributed to two sanctioned entities"
                    )
                self._by_domain[domain] = entity

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[SanctionedEntity]:
        return iter(self._entities)

    def entities(self) -> List[SanctionedEntity]:
        """All entities, listing order preserved."""
        return list(self._entities)

    def all_domains(self) -> List[DomainName]:
        """Every sanctioned domain regardless of listing date (paper: 107)."""
        return sorted(self._by_domain)

    def domains_listed_as_of(self, date: DateLike) -> List[DomainName]:
        """Domains whose entity was designated on or before ``date``."""
        boundary = as_date(date)
        return sorted(
            domain
            for domain, entity in self._by_domain.items()
            if entity.listed_on() <= boundary
        )

    def listing_dates(self) -> List[_dt.date]:
        """Distinct designation dates, ascending (the 'waves')."""
        return sorted({entity.listed_on() for entity in self._entities})

"""Sanctioned entities and their designations."""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Sequence

from ..dns.name import DomainName
from ..timeline import DateLike, as_date

__all__ = ["SanctionsAuthority", "Designation", "SanctionedEntity"]


class SanctionsAuthority(enum.Enum):
    """Who issued the designation."""

    US_OFAC_SDN = "US OFAC SDN"
    UK_SANCTIONS_LIST = "UK Sanctions List"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Designation:
    """One listing action by one authority."""

    __slots__ = ("authority", "listed_on", "program")

    def __init__(
        self,
        authority: SanctionsAuthority,
        listed_on: DateLike,
        program: str = "RUSSIA-EO14024",
    ) -> None:
        self.authority = authority
        self.listed_on = as_date(listed_on)
        self.program = program

    def __repr__(self) -> str:
        return f"Designation({self.authority} {self.listed_on})"


class SanctionedEntity:
    """A sanctioned organisation and the domains attributed to it."""

    __slots__ = ("name", "domains", "designations")

    def __init__(
        self,
        name: str,
        domains: Sequence[DomainName],
        designations: Sequence[Designation],
    ) -> None:
        self.name = name
        self.domains = tuple(domains)
        self.designations = tuple(designations)

    def listed_on(self) -> _dt.date:
        """Earliest designation date across authorities."""
        return min(d.listed_on for d in self.designations)

    def __repr__(self) -> str:
        return f"SanctionedEntity({self.name!r}, {len(self.domains)} domains)"

"""Registered-domain records and their lifecycle."""

from __future__ import annotations

from ..dns.name import DomainName
from ..errors import RegistryError
from ..timeline import DateLike, day_index, from_day_index

__all__ = ["NEVER", "DomainRecord"]

#: Sentinel day index meaning "not deleted within the simulation horizon".
NEVER = 10**9


class DomainRecord:
    """One registration under a simulated ccTLD.

    ``created_day``/``deleted_day`` are study-day indices; a domain is
    *active* on day ``d`` when ``created_day <= d < deleted_day``.
    """

    __slots__ = ("name", "index", "created_day", "deleted_day", "registrar", "registrant")

    def __init__(
        self,
        name: DomainName,
        index: int,
        created_day: int,
        deleted_day: int = NEVER,
        registrar: str = "",
        registrant: str = "",
    ) -> None:
        if deleted_day <= created_day:
            raise RegistryError(
                f"{name}: deleted_day {deleted_day} <= created_day {created_day}"
            )
        self.name = name
        self.index = index
        self.created_day = created_day
        self.deleted_day = deleted_day
        self.registrar = registrar
        self.registrant = registrant

    def is_active(self, date: DateLike) -> bool:
        """True when the registration exists on ``date``."""
        day = day_index(date)
        return self.created_day <= day < self.deleted_day

    @property
    def created_date(self):
        """Creation date as :class:`datetime.date`."""
        return from_day_index(self.created_day)

    def __repr__(self) -> str:
        return (
            f"DomainRecord({self.name}, day {self.created_day}.."
            f"{'∞' if self.deleted_day >= NEVER else self.deleted_day})"
        )

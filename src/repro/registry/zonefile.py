"""Daily zone-file snapshots: the seed lists for active measurement.

OpenINTEL seeds its daily sweeps from TLD zone files.  A
:class:`ZoneFileSnapshot` is exactly that seed: the set of names delegated
from a registry zone on a given date (per TLD), without any resolution
data.
"""

from __future__ import annotations

import datetime as _dt
from typing import Iterator, List

import numpy as np

from ..dns.name import DomainName
from ..timeline import DateLike, as_date
from .population import DomainPopulation

__all__ = ["ZoneFileSnapshot", "ZoneFileService"]


class ZoneFileSnapshot:
    """The registered names of one day, with per-TLD breakdown."""

    def __init__(
        self, date: _dt.date, indices: np.ndarray, population: DomainPopulation
    ) -> None:
        self.date = date
        self.indices = indices
        self._population = population

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[DomainName]:
        for index in self.indices:
            yield self._population.record(int(index)).name

    def names(self) -> List[DomainName]:
        """All registered names on this day."""
        return list(self)


class ZoneFileService:
    """Produces :class:`ZoneFileSnapshot` objects from the population."""

    def __init__(self, population: DomainPopulation) -> None:
        self._population = population

    def snapshot(self, date: DateLike) -> ZoneFileSnapshot:
        """The seed list for ``date``."""
        return ZoneFileSnapshot(
            as_date(date),
            self._population.active_indices(date),
            self._population,
        )

"""Date-versioned geolocation: "contemporaneous" lookups.

The paper geolocates each day's measurements with that day's IP2location
snapshot (footnote 5 notes inferences can lag when address space *moves*
rather than changes).  :class:`GeoService` keeps an ordered history of
database snapshots and answers lookups as-of any study date, including an
optional publication lag to reproduce that footnote's artefact.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from ..errors import GeolocationError
from ..timeline import DateLike, day_index
from .database import GeoDatabase

__all__ = ["GeoService"]


class GeoService:
    """An append-only history of :class:`GeoDatabase` snapshots."""

    def __init__(self, lag_days: int = 0) -> None:
        if lag_days < 0:
            raise GeolocationError(f"lag must be non-negative, got {lag_days}")
        self._lag_days = lag_days
        self._epochs: List[Tuple[int, GeoDatabase]] = []

    @property
    def lag_days(self) -> int:
        """Snapshot publication lag applied to every query date."""
        return self._lag_days

    @property
    def epochs(self) -> List[Tuple[int, GeoDatabase]]:
        """(effective day index, snapshot) pairs, oldest first."""
        return list(self._epochs)

    def publish(self, effective: DateLike, database: GeoDatabase) -> None:
        """Install a snapshot effective from ``effective`` onward.

        Snapshots must be published in chronological order.
        """
        day = day_index(effective)
        if self._epochs and day <= self._epochs[-1][0]:
            raise GeolocationError(
                "geo snapshots must be published in increasing date order"
            )
        self._epochs.append((day, database))

    def database_at(self, date: DateLike) -> GeoDatabase:
        """The snapshot a client would use on ``date`` (lag applied)."""
        if not self._epochs:
            raise GeolocationError("no geo snapshots published")
        effective_day = day_index(date) - self._lag_days
        days = [day for day, _ in self._epochs]
        pos = bisect.bisect_right(days, effective_day) - 1
        if pos < 0:
            # Before the first snapshot: real studies fall back to the
            # earliest data they have rather than refusing to geolocate.
            pos = 0
        return self._epochs[pos][1]

    def lookup(self, date: DateLike, address: int) -> Optional[str]:
        """Country of ``address`` as seen on ``date``."""
        return self.database_at(date).lookup(address)

"""Longitudinal country-composition series (Figures 1 and 5).

A :class:`CompositionSeries` accumulates per-day full/part/non counts and
the daily domain total (the black curve in the paper's figures), for
either the whole population or a subset (the sanctioned domains).  The
merges in :mod:`repro.core.reducers` fill it from day summaries.
"""

from __future__ import annotations

import bisect
import datetime as _dt
from typing import List

from ..errors import AnalysisError

__all__ = ["CompositionPoint", "CompositionSeries"]


class CompositionPoint:
    """One day's composition."""

    __slots__ = ("date", "full", "part", "non")

    def __init__(self, date: _dt.date, full: int, part: int, non: int) -> None:
        self.date = date
        self.full = full
        self.part = part
        self.non = non

    @property
    def total(self) -> int:
        """Number of classified domains."""
        return self.full + self.part + self.non

    def share(self, which: str) -> float:
        """Percentage [0, 100] of one class (``full``/``part``/``non``)."""
        if self.total == 0:
            return 0.0
        return 100.0 * getattr(self, which) / self.total

    def __repr__(self) -> str:
        return (
            f"CompositionPoint({self.date} full={self.full} "
            f"part={self.part} non={self.non})"
        )


class CompositionSeries:
    """An append-only series of :class:`CompositionPoint`."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        self._points: List[CompositionPoint] = []
        # Sorted date index backing O(log n) at()/nearest(); chronological
        # appends keep it in lockstep with _points.
        self._dates: List[_dt.date] = []

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def add(self, point: CompositionPoint) -> None:
        """Append one day (dates must be strictly increasing)."""
        if self._points and point.date <= self._points[-1].date:
            raise AnalysisError(
                f"composition points must be chronological "
                f"({point.date} after {self._points[-1].date})"
            )
        self._points.append(point)
        self._dates.append(point.date)

    def add_counts(self, date: _dt.date, full: int, part: int, non: int) -> None:
        """Append one day from raw counts."""
        self.add(CompositionPoint(date, full, part, non))

    def points(self) -> List[CompositionPoint]:
        """All points, chronological."""
        return list(self._points)

    def dates(self) -> List[_dt.date]:
        """Series dates."""
        return list(self._dates)

    def shares(self, which: str) -> List[float]:
        """Percentage series for one class."""
        return [point.share(which) for point in self._points]

    def totals(self) -> List[int]:
        """The black curve: classified-domain totals."""
        return [point.total for point in self._points]

    def at(self, date: _dt.date) -> CompositionPoint:
        """The point for ``date`` (exact match, binary search)."""
        pos = bisect.bisect_left(self._dates, date)
        if pos < len(self._dates) and self._dates[pos] == date:
            return self._points[pos]
        raise AnalysisError(f"no composition point for {date}")

    def nearest(self, date: _dt.date) -> CompositionPoint:
        """The point closest in time to ``date`` (earlier wins ties)."""
        if not self._points:
            raise AnalysisError("empty composition series")
        pos = bisect.bisect_left(self._dates, date)
        if pos == 0:
            return self._points[0]
        if pos == len(self._points):
            return self._points[-1]
        before, after = self._points[pos - 1], self._points[pos]
        if abs((after.date - date).days) < abs((before.date - date).days):
            return after
        return before

    def first(self) -> CompositionPoint:
        """First point."""
        if not self._points:
            raise AnalysisError("empty composition series")
        return self._points[0]

    def last(self) -> CompositionPoint:
        """Last point."""
        if not self._points:
            raise AnalysisError("empty composition series")
        return self._points[-1]

    def net_change(self, which: str) -> float:
        """Percentage-point change of a class between first and last point."""
        return self.last().share(which) - self.first().share(which)

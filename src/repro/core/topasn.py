"""Per-hosting-network domain shares (Figure 4).

For each tracked ASN, the share of Russian-Federation domains whose apex
resolves into that network, day by day, as
:func:`~repro.core.reducers.merge_recent_window` merges it from day
summaries.  :func:`asn_members` lists one day's members per domain.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Sequence

import numpy as np

from ..errors import AnalysisError
from ..measurement.fast import DailySnapshot

__all__ = ["AsnSharePoint", "AsnShareSeries", "asn_members"]


def asn_members(snapshot: DailySnapshot, asn: int) -> np.ndarray:
    """Measured domain indices whose apex resolves into ``asn``."""
    labels = snapshot.epoch.hosting_labels
    plan_ids = snapshot.hosting_ids[snapshot.measured]
    in_asn_plan = np.asarray(
        [asn in asns for asns in labels.asn_sets], dtype=bool
    )
    return snapshot.measured[in_asn_plan[plan_ids]]


class AsnSharePoint:
    """One day's per-ASN membership counts."""

    __slots__ = ("date", "total", "counts")

    def __init__(self, date: _dt.date, total: int, counts: Dict[int, int]) -> None:
        self.date = date
        self.total = total
        self.counts = counts

    def share(self, asn: int) -> float:
        """Percentage of domains hosted in ``asn``."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(asn, 0) / self.total


class AsnShareSeries:
    """Longitudinal per-ASN shares for a fixed ASN set."""

    def __init__(self, asns: Sequence[int]) -> None:
        self.asns = list(asns)
        self._points: List[AsnSharePoint] = []

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def add(self, point: AsnSharePoint) -> None:
        """Append one day."""
        if self._points and point.date <= self._points[-1].date:
            raise AnalysisError("ASN share points must be chronological")
        self._points.append(point)

    def dates(self) -> List[_dt.date]:
        """Series dates."""
        return [point.date for point in self._points]

    def share_series(self, asn: int) -> List[float]:
        """Percentage series for one ASN."""
        return [point.share(asn) for point in self._points]

    def count_series(self, asn: int) -> List[int]:
        """Absolute count series for one ASN."""
        return [point.counts.get(asn, 0) for point in self._points]

    def first(self) -> AsnSharePoint:
        """First point."""
        if not self._points:
            raise AnalysisError("empty ASN share series")
        return self._points[0]

    def last(self) -> AsnSharePoint:
        """Last point."""
        if not self._points:
            raise AnalysisError("empty ASN share series")
        return self._points[-1]

"""Name-server TLD dependency series (Figures 2 and 3).

Two views over the TLDs that authoritative name-server *names* are
registered under, both merged from day summaries by
:func:`~repro.core.reducers.merge_full_sweep`:

* the full/part/non composition against Russian-administered TLDs (a
  plain :class:`~repro.core.composition.CompositionSeries`), and
* the per-TLD share of domains delegating to at least one name server
  under that TLD (shares can sum past 100%, as in the paper).
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional

from ..errors import AnalysisError

__all__ = ["TldSharePoint", "TldShareSeries"]


class TldSharePoint:
    """One day's per-TLD domain shares."""

    __slots__ = ("date", "total", "counts")

    def __init__(self, date: _dt.date, total: int, counts: Dict[str, int]) -> None:
        self.date = date
        self.total = total
        #: TLD -> number of domains with >= 1 NS name under it.
        self.counts = counts

    def share(self, tld: str) -> float:
        """Percentage of domains using ``tld`` for >= 1 name server."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(tld, 0) / self.total


class TldShareSeries:
    """Longitudinal per-TLD shares."""

    def __init__(self) -> None:
        self._points: List[TldSharePoint] = []

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def add(self, point: TldSharePoint) -> None:
        """Append one day."""
        if self._points and point.date <= self._points[-1].date:
            raise AnalysisError("TLD share points must be chronological")
        self._points.append(point)

    def dates(self) -> List[_dt.date]:
        """Series dates."""
        return [point.date for point in self._points]

    def tlds_seen(self) -> List[str]:
        """Every TLD observed anywhere in the series."""
        seen = set()
        for point in self._points:
            seen.update(point.counts)
        return sorted(seen)

    def share_series(self, tld: str) -> List[float]:
        """Percentage series for one TLD."""
        return [point.share(tld) for point in self._points]

    def top_tlds(self, k: int = 5, at: Optional[_dt.date] = None) -> List[str]:
        """The ``k`` TLDs with the highest share (on the last day or ``at``)."""
        if not self._points:
            raise AnalysisError("empty TLD share series")
        point = self._points[-1]
        if at is not None:
            point = min(self._points, key=lambda p: abs((p.date - at).days))
        ranked = sorted(
            point.counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [tld for tld, _ in ranked[:k]]

    def first(self) -> TldSharePoint:
        """First point."""
        if not self._points:
            raise AnalysisError("empty TLD share series")
        return self._points[0]

    def last(self) -> TldSharePoint:
        """Last point."""
        if not self._points:
            raise AnalysisError("empty TLD share series")
        return self._points[-1]

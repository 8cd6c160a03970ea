"""Per-country infrastructure distribution (Section 3.2 prose).

The paper attributes the post-invasion hosting shifts to "flight from the
US and other Western countries to a combination of Russia and the
Netherlands".  This module measures that directly: for each day, the
share of domains with at least one apex address (or name server) in each
country.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..measurement.fast import DailySnapshot

__all__ = ["CountrySharePoint", "CountryShareSeries", "collect_country_shares"]


class CountrySharePoint:
    """One day's per-country domain counts."""

    __slots__ = ("date", "total", "counts")

    def __init__(self, date: _dt.date, total: int, counts: Dict[str, int]) -> None:
        self.date = date
        self.total = total
        #: country -> domains with >= 1 measured address there.
        self.counts = counts

    def share(self, country: str) -> float:
        """Percentage of domains with presence in ``country``."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(country, 0) / self.total


class CountryShareSeries:
    """Longitudinal per-country shares."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._points: List[CountrySharePoint] = []

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def add(self, point: CountrySharePoint) -> None:
        """Append one day (chronological)."""
        if self._points and point.date <= self._points[-1].date:
            raise AnalysisError("country share points must be chronological")
        self._points.append(point)

    def share_series(self, country: str) -> List[float]:
        """Percentage series for one country."""
        return [point.share(country) for point in self._points]

    def first(self) -> CountrySharePoint:
        """First point."""
        if not self._points:
            raise AnalysisError("empty country share series")
        return self._points[0]

    def last(self) -> CountrySharePoint:
        """Last point."""
        if not self._points:
            raise AnalysisError("empty country share series")
        return self._points[-1]

    def net_change(self, country: str) -> float:
        """Share change (pp) between first and last point."""
        return self.last().share(country) - self.first().share(country)


def collect_country_shares(
    snapshots: Iterable[DailySnapshot],
    kind: str = "hosting",
    subset_indices: Optional[Sequence[int]] = None,
) -> CountryShareSeries:
    """Per-country presence shares over a snapshot sweep.

    ``kind`` is ``"hosting"`` (apex addresses) or ``"ns"`` (name-server
    addresses).
    """
    if kind not in ("hosting", "ns"):
        raise AnalysisError(f"unknown country-share kind {kind!r}")
    series = CountryShareSeries(kind)
    membership_cache: Dict[int, tuple] = {}

    for snapshot in snapshots:
        if kind == "hosting":
            labels = snapshot.epoch.hosting_labels
            plan_countries = labels.countries
            plan_ids_all = snapshot.hosting_ids
        else:
            labels = snapshot.epoch.dns_labels
            plan_countries = labels.ns_countries
            plan_ids_all = snapshot.dns_ids

        cache_key = id(labels)
        cached = membership_cache.get(cache_key)
        if cached is None:
            countries = sorted(
                {c for tup in plan_countries for c in tup if c is not None}
            )
            column = {country: i for i, country in enumerate(countries)}
            matrix = np.zeros((len(plan_countries), len(countries)), dtype=bool)
            for plan_id, tup in enumerate(plan_countries):
                for country in tup:
                    if country is not None:
                        matrix[plan_id, column[country]] = True
            cached = (countries, matrix)
            membership_cache[cache_key] = cached
        countries, matrix = cached

        subset = (
            snapshot.subset(subset_indices)
            if subset_indices is not None
            else snapshot.measured
        )
        plan_counts = np.bincount(plan_ids_all[subset], minlength=matrix.shape[0])
        per_country = plan_counts @ matrix
        series.add(
            CountrySharePoint(
                snapshot.date,
                int(len(subset)),
                {
                    country: int(per_country[i])
                    for i, country in enumerate(countries)
                    if per_country[i] > 0
                },
            )
        )
    return series

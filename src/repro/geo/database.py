"""An IP2location-style range geolocation database.

The real study geolocates every measured address with contemporaneous
IP2location snapshots.  Our equivalent is a sorted list of disjoint
``[start, end] -> country`` ranges with binary-search point lookups and a
vectorised bulk lookup for the columnar collector.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import GeolocationError
from ..net.ip import is_valid_ipv4_int
from ..net.prefix import Prefix
from .countries import validate_country

__all__ = [
    "GeoRange",
    "GeoDatabase",
    "GeoDatabaseBuilder",
    "merge_adjacent_ranges",
    "with_override",
]


class GeoRange:
    """One contiguous address range mapped to a country."""

    __slots__ = ("start", "end", "country")

    def __init__(self, start: int, end: int, country: str) -> None:
        if not (is_valid_ipv4_int(start) and is_valid_ipv4_int(end)):
            raise GeolocationError(f"bad range bounds: {start!r}..{end!r}")
        if start > end:
            raise GeolocationError(f"inverted range: {start} > {end}")
        self.start = start
        self.end = end
        self.country = validate_country(country)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeoRange):
            return NotImplemented
        return (self.start, self.end, self.country) == (
            other.start,
            other.end,
            other.country,
        )

    def __repr__(self) -> str:
        return f"GeoRange({self.start}..{self.end} -> {self.country})"


class GeoDatabase:
    """An immutable snapshot of the geolocation database."""

    def __init__(self, ranges: Iterable[GeoRange]) -> None:
        ordered = sorted(ranges, key=lambda r: r.start)
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.start <= prev.end:
                raise GeolocationError(
                    f"overlapping geo ranges: {prev!r} and {nxt!r}"
                )
        self._ranges: List[GeoRange] = ordered
        self._starts: List[int] = [r.start for r in ordered]
        # Arrays for the vectorised path.
        self._np_starts = np.asarray(self._starts, dtype=np.int64)
        self._np_ends = np.asarray([r.end for r in ordered], dtype=np.int64)
        countries = sorted({r.country for r in ordered})
        self._country_codes: List[str] = countries
        index_of = {c: i for i, c in enumerate(countries)}
        self._np_country_idx = np.asarray(
            [index_of[r.country] for r in ordered], dtype=np.int32
        )

    def __len__(self) -> int:
        return len(self._ranges)

    @property
    def ranges(self) -> List[GeoRange]:
        """All ranges, sorted by start address."""
        return list(self._ranges)

    @property
    def countries(self) -> List[str]:
        """Distinct countries present, sorted."""
        return list(self._country_codes)

    def lookup(self, address: int) -> Optional[str]:
        """Country for ``address``, or None when unmapped."""
        if not is_valid_ipv4_int(address):
            raise GeolocationError(f"not an IPv4 integer: {address!r}")
        pos = bisect.bisect_right(self._starts, address) - 1
        if pos < 0:
            return None
        entry = self._ranges[pos]
        return entry.country if address <= entry.end else None

    def lookup_many(self, addresses: Iterable[int]) -> List[Optional[str]]:
        """Point lookups preserving order."""
        return [self.lookup(address) for address in addresses]

    def lookup_array(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised lookup: returns country-index array, -1 for unmapped.

        Country indices refer to :attr:`countries`; the caller converts
        back to codes once per distinct value instead of per address.
        """
        values = np.asarray(addresses, dtype=np.int64)
        if len(self._np_starts) == 0:
            return np.full(values.shape, -1, dtype=np.int32)
        pos = np.searchsorted(self._np_starts, values, side="right") - 1
        result = np.full(values.shape, -1, dtype=np.int32)
        inside = pos >= 0
        clipped = np.clip(pos, 0, None)
        covered = inside & (values <= self._np_ends[clipped])
        result[covered] = self._np_country_idx[clipped[covered]]
        return result


def merge_adjacent_ranges(ranges: Iterable[GeoRange]) -> List[GeoRange]:
    """Coalesce contiguous same-country ranges (input may be unsorted)."""
    merged: List[GeoRange] = []
    for entry in sorted(ranges, key=lambda r: r.start):
        if (
            merged
            and merged[-1].country == entry.country
            and merged[-1].end + 1 == entry.start
        ):
            merged[-1] = GeoRange(merged[-1].start, entry.end, entry.country)
        else:
            merged.append(entry)
    return merged


class GeoDatabaseBuilder:
    """Accumulates prefix-to-country assignments into a :class:`GeoDatabase`."""

    def __init__(self) -> None:
        self._ranges: List[Tuple[int, int, str]] = []

    def add_prefix(self, prefix: Prefix, country: str) -> "GeoDatabaseBuilder":
        """Map every address in ``prefix`` to ``country``."""
        self._ranges.append((prefix.first, prefix.last, validate_country(country)))
        return self

    def add_range(self, start: int, end: int, country: str) -> "GeoDatabaseBuilder":
        """Map the inclusive range to ``country``."""
        self._ranges.append((start, end, validate_country(country)))
        return self

    def build(self, merge_adjacent: bool = True) -> GeoDatabase:
        """Build the immutable snapshot, optionally merging adjacent ranges."""
        ranges = [GeoRange(s, e, c) for s, e, c in sorted(self._ranges)]
        if merge_adjacent:
            ranges = merge_adjacent_ranges(ranges)
        return GeoDatabase(ranges)


def with_override(
    database: GeoDatabase, start: int, end: int, country: str
) -> GeoDatabase:
    """A new database where [start, end] maps to ``country``.

    Existing ranges overlapping the window are clipped around it.  This is
    how an address-block *transfer* between countries is reflected in a
    fresh geolocation snapshot (e.g. the Netnod-to-RU-CENTER handover in
    the geolocation-lag ablation).  Adjacent same-country ranges are
    re-merged on rebuild so repeated overrides (one per scenario event)
    cannot fragment the database and degrade ``lookup_array``.
    """
    if start > end:
        raise GeolocationError(f"inverted override range: {start} > {end}")
    updated: List[GeoRange] = []
    for entry in database.ranges:
        if entry.end < start or entry.start > end:
            updated.append(entry)
            continue
        if entry.start < start:
            updated.append(GeoRange(entry.start, start - 1, entry.country))
        if entry.end > end:
            updated.append(GeoRange(end + 1, entry.end, entry.country))
    updated.append(GeoRange(start, end, validate_country(country)))
    return GeoDatabase(merge_adjacent_ranges(updated))

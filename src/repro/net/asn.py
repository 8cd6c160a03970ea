"""Autonomous-system registry: ASN -> (name, country, organisation).

The paper reports results per hosting network (e.g. Amazon AS16509, Sedo
AS47846, Cloudflare AS13335).  This registry is the simulation's equivalent
of an AS-to-organisation mapping such as CAIDA's AS2Org.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..errors import AddressError

__all__ = ["ASInfo", "ASRegistry"]


class ASInfo:
    """Metadata for one autonomous system."""

    __slots__ = ("asn", "name", "country", "org")

    def __init__(self, asn: int, name: str, country: str, org: str) -> None:
        if asn < 0 or asn > 0xFFFFFFFF:
            raise AddressError(f"ASN out of range: {asn}")
        if len(country) != 2 or not country.isupper():
            raise AddressError(f"country must be ISO alpha-2, got {country!r}")
        self.asn = asn
        self.name = name
        self.country = country
        self.org = org

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASInfo):
            return NotImplemented
        return (
            self.asn == other.asn
            and self.name == other.name
            and self.country == other.country
            and self.org == other.org
        )

    def __repr__(self) -> str:
        return f"ASInfo(AS{self.asn}, {self.name!r}, {self.country})"


class ASRegistry:
    """A lookup table of :class:`ASInfo` records."""

    def __init__(self) -> None:
        self._by_asn: Dict[int, ASInfo] = {}

    def __len__(self) -> int:
        return len(self._by_asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    def __iter__(self) -> Iterator[ASInfo]:
        return iter(sorted(self._by_asn.values(), key=lambda info: info.asn))

    def register(self, info: ASInfo) -> None:
        """Add or replace the record for ``info.asn``."""
        self._by_asn[info.asn] = info

    def get(self, asn: int) -> Optional[ASInfo]:
        """Record for ``asn`` or None."""
        return self._by_asn.get(asn)

    def name_of(self, asn: int) -> str:
        """Display name for ``asn`` (falls back to ``AS<number>``)."""
        info = self._by_asn.get(asn)
        return info.name if info is not None else f"AS{asn}"

"""A longest-prefix-match routing information base (RIB).

Maps IPv4 prefixes to origin AS numbers the way the paper maps hosting and
name-server addresses to networks.  Lookup walks prefix lengths from /32
down to /0 with one dict probe per populated length, which is O(number of
distinct lengths) — fast and simple for simulation-scale tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import AddressError
from .ip import is_valid_ipv4_int
from .prefix import Prefix

__all__ = ["Route", "RoutingTable"]


class Route:
    """A single RIB entry: a prefix originated by an AS."""

    __slots__ = ("prefix", "origin_asn")

    def __init__(self, prefix: Prefix, origin_asn: int) -> None:
        self.prefix = prefix
        self.origin_asn = origin_asn

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return self.prefix == other.prefix and self.origin_asn == other.origin_asn

    def __hash__(self) -> int:
        return hash((self.prefix, self.origin_asn))

    def __repr__(self) -> str:
        return f"Route({self.prefix} -> AS{self.origin_asn})"


class RoutingTable:
    """Longest-prefix-match table from IPv4 address to origin ASN."""

    def __init__(self) -> None:
        # One dict per prefix length: network-int -> origin ASN.
        self._by_length: Dict[int, Dict[int, int]] = {}
        self._routes: Dict[Prefix, int] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def announce(self, prefix: Prefix, origin_asn: int) -> None:
        """Install (or replace) the route for ``prefix``."""
        if origin_asn < 0 or origin_asn > 0xFFFFFFFF:
            raise AddressError(f"ASN out of range: {origin_asn}")
        self._by_length.setdefault(prefix.length, {})[prefix.network] = origin_asn
        self._routes[prefix] = origin_asn

    def withdraw(self, prefix: Prefix) -> None:
        """Remove the route for ``prefix``; missing routes are ignored."""
        level = self._by_length.get(prefix.length)
        if level is not None:
            level.pop(prefix.network, None)
            if not level:
                del self._by_length[prefix.length]
        self._routes.pop(prefix, None)

    def routes(self) -> List[Route]:
        """All installed routes, sorted by prefix."""
        return [Route(p, a) for p, a in sorted(self._routes.items())]

    def lookup(self, address: int) -> Optional[int]:
        """Origin ASN of the most-specific covering prefix, or None."""
        if not is_valid_ipv4_int(address):
            raise AddressError(f"not an IPv4 integer: {address!r}")
        for length in sorted(self._by_length, reverse=True):
            network = address & Prefix.mask_for(length)
            asn = self._by_length[length].get(network)
            if asn is not None:
                return asn
        return None

    def lookup_many(self, addresses: Iterable[int]) -> List[Optional[int]]:
        """Vector form of :meth:`lookup` (preserves order)."""
        return [self.lookup(address) for address in addresses]

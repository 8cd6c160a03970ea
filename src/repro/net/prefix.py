"""IPv4 prefixes and a sequential prefix allocator.

A :class:`Prefix` is an immutable CIDR block.  The :class:`PrefixAllocator`
hands out non-overlapping blocks from a parent prefix, which the provider
catalog uses to build each provider's address plan deterministically.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import AddressError, AllocationError
from .ip import MAX_IPV4, format_ipv4, parse_ipv4

__all__ = ["Prefix", "PrefixAllocator"]


class Prefix:
    """An immutable IPv4 CIDR prefix (network address + length)."""

    __slots__ = ("network", "length")

    def __init__(self, network: int, length: int) -> None:
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= network <= MAX_IPV4:
            raise AddressError(f"network out of range: {network}")
        mask = Prefix.mask_for(length)
        if network & ~mask & MAX_IPV4:
            raise AddressError(
                f"host bits set in {format_ipv4(network)}/{length}"
            )
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    @staticmethod
    def mask_for(length: int) -> int:
        """Netmask integer for a prefix length."""
        if length == 0:
            return 0
        return (MAX_IPV4 << (32 - length)) & MAX_IPV4

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        try:
            addr_text, length_text = text.split("/")
        except ValueError as exc:
            raise AddressError(f"not CIDR notation: {text!r}") from exc
        if not length_text.isdigit():
            raise AddressError(f"bad prefix length in {text!r}")
        return cls(parse_ipv4(addr_text), int(length_text))

    @property
    def first(self) -> int:
        """First address in the block (the network address)."""
        return self.network

    @property
    def last(self) -> int:
        """Last address in the block (the broadcast address for subnets)."""
        return self.network | (~self.mask_for(self.length) & MAX_IPV4)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this prefix."""
        return self.first <= address <= self.last

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is fully inside this prefix."""
        return self.first <= other.first and other.last <= self.last

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two blocks share any address."""
        return self.first <= other.last and other.first <= self.last

    def hosts(self) -> Iterator[int]:
        """Yield every address in the block (including network/broadcast).

        The simulation treats blocks as flat pools, so no addresses are
        reserved.
        """
        return iter(range(self.first, self.last + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __lt__(self, other: "Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"


class PrefixAllocator:
    """Sequential, non-overlapping block allocator inside a parent prefix.

    Allocations are aligned to their own size (standard CIDR alignment), so
    the allocator may skip space when switching between block sizes.
    """

    def __init__(self, parent: Prefix) -> None:
        self._parent = parent
        self._cursor = parent.first

    @property
    def parent(self) -> Prefix:
        """The block being carved up."""
        return self._parent

    def remaining(self) -> int:
        """Addresses left (ignoring alignment waste yet to come)."""
        return self._parent.last - self._cursor + 1

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free, size-aligned block of ``length``."""
        if length < self._parent.length or length > 32:
            raise AllocationError(
                f"cannot allocate /{length} from {self._parent}"
            )
        size = 1 << (32 - length)
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self._parent.last:
            raise AllocationError(
                f"{self._parent} exhausted allocating /{length}"
            )
        block = Prefix(aligned, length)
        self._cursor = aligned + size
        return block

"""IPv4 address handling on plain integers.

The simulation stores addresses as unsigned 32-bit integers so they pack
into numpy arrays; these helpers convert to and from dotted-quad text and
perform basic validation.  (The standard-library :mod:`ipaddress` module
would also work, but object-per-address is too heavy for columnar use.)
"""

from __future__ import annotations

from ..errors import AddressError

__all__ = [
    "MAX_IPV4",
    "parse_ipv4",
    "format_ipv4",
    "is_valid_ipv4_int",
]

#: Largest representable IPv4 address as an integer (255.255.255.255).
MAX_IPV4 = 0xFFFFFFFF


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer.

    Rejects anything that is not exactly four decimal octets in ``0..255``
    (no leading-zero shorthand, no inet_aton-style single-integer forms).
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format integer ``value`` as a dotted quad."""
    if not is_valid_ipv4_int(value):
        raise AddressError(f"not a 32-bit address: {value!r}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def is_valid_ipv4_int(value: object) -> bool:
    """True when ``value`` is an int in the 32-bit unsigned range."""
    return isinstance(value, int) and 0 <= value <= MAX_IPV4


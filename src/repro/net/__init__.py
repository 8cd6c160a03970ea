"""IPv4 addressing, prefixes, routing, and AS metadata.

This subpackage is the simulation's equivalent of the address/routing layer
the paper relies on to map measured IP addresses to hosting networks.
"""

from .asn import ASInfo, ASRegistry
from .ip import MAX_IPV4, format_ipv4, is_valid_ipv4_int, parse_ipv4
from .prefix import Prefix, PrefixAllocator
from .rib import Route, RoutingTable

__all__ = [
    "ASInfo",
    "ASRegistry",
    "MAX_IPV4",
    "format_ipv4",
    "is_valid_ipv4_int",
    "parse_ipv4",
    "Prefix",
    "PrefixAllocator",
    "Route",
    "RoutingTable",
]

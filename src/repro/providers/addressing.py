"""The address plan: IP space, routing, geolocation, and name-server hosts.

Every catalogued ASN gets a /16; the lower half of each /16 holds
infrastructure /24s (name servers), the upper /17 is the customer hosting
pool.  From this single source of truth the plan derives the routing table
(IP -> ASN) and the geolocation database (IP -> country), so "where does
this address geolocate" and "whose network is this" stay mutually
consistent — exactly the property the paper's measurements rely on.

Name-server hosts can be *renumbered* onto a different provider's
infrastructure (``move_ns_host``), which is how the March 3, 2022 Netnod /
RU-CENTER event is simulated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..dns.name import DomainName
from ..errors import AllocationError, ScenarioError
from ..geo.database import GeoDatabase, GeoDatabaseBuilder
from ..net.prefix import Prefix, PrefixAllocator
from ..net.rib import RoutingTable
from ..rng import stable_hash
from .catalog import ProviderCatalog
from .provider import NsHost

__all__ = ["AddressPlan"]

_DEFAULT_BASE = "20.0.0.0/6"


class AddressPlan:
    """Concrete address assignments for a provider catalog."""

    def __init__(
        self,
        catalog: ProviderCatalog,
        base: Union[str, Prefix] = _DEFAULT_BASE,
        asn_prefix_length: int = 16,
    ) -> None:
        self.catalog = catalog
        parent = Prefix.parse(base) if isinstance(base, str) else base
        self._allocator = PrefixAllocator(parent)
        self._asn_prefix_length = asn_prefix_length

        self._asn_prefix: Dict[int, Prefix] = {}
        self._asn_country: Dict[int, str] = {}
        self._infra_allocators: Dict[int, PrefixAllocator] = {}
        self._infra_block: Dict[str, Prefix] = {}
        self._ns_hosts: Dict[DomainName, NsHost] = {}
        self._ns_address: Dict[DomainName, int] = {}
        self._ns_cursor: Dict[str, int] = {}

        for provider in catalog:
            for asn in provider.asns:
                if asn not in self._asn_prefix:
                    prefix = self._allocator.allocate(asn_prefix_length)
                    self._asn_prefix[asn] = prefix
                    self._asn_country[asn] = provider.country
                    # Infra /24s come from the lower half of the block.
                    lower = Prefix(prefix.network, asn_prefix_length + 1)
                    self._infra_allocators[asn] = PrefixAllocator(lower)

        for provider in catalog:
            for ns_host in provider.ns_hosts:
                self._place_ns_host(ns_host)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _infra_block_for(self, provider_key: str) -> Prefix:
        block = self._infra_block.get(provider_key)
        if block is None:
            provider = self.catalog.get(provider_key)
            block = self._infra_allocators[provider.primary_asn].allocate(24)
            self._infra_block[provider_key] = block
            self._ns_cursor[provider_key] = block.first
        return block

    def _place_ns_host(self, ns_host: NsHost) -> int:
        if ns_host.hostname in self._ns_hosts and (
            self._ns_hosts[ns_host.hostname].owner != ns_host.owner
        ):
            raise ScenarioError(f"duplicate ns hostname {ns_host.hostname}")
        block = self._infra_block_for(ns_host.infra)
        cursor = self._ns_cursor[ns_host.infra]
        if cursor > block.last:
            raise AllocationError(f"infra block of {ns_host.infra} exhausted")
        self._ns_cursor[ns_host.infra] = cursor + 1
        self._ns_hosts[ns_host.hostname] = ns_host
        self._ns_address[ns_host.hostname] = cursor
        return cursor

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def prefix_of_asn(self, asn: int) -> Prefix:
        """The /16 announced by ``asn``."""
        prefix = self._asn_prefix.get(asn)
        if prefix is None:
            raise ScenarioError(f"ASN {asn} has no allocation")
        return prefix

    def hosting_pool(self, asn: int) -> Prefix:
        """The customer pool (upper /17) of an ASN's block."""
        prefix = self.prefix_of_asn(asn)
        half = 1 << (32 - self._asn_prefix_length - 1)
        return Prefix(prefix.network + half, self._asn_prefix_length + 1)

    def routing_table(self) -> RoutingTable:
        """IP -> origin-ASN table covering every allocation."""
        table = RoutingTable()
        for asn, prefix in self._asn_prefix.items():
            table.announce(prefix, asn)
        return table

    def geo_database(self) -> GeoDatabase:
        """IP -> country database consistent with the allocations."""
        builder = GeoDatabaseBuilder()
        for asn, prefix in self._asn_prefix.items():
            builder.add_prefix(prefix, self._asn_country[asn])
        return builder.build()

    # ------------------------------------------------------------------
    # Name-server hosts
    # ------------------------------------------------------------------

    def ns_hostnames(self) -> List[DomainName]:
        """All known name-server hostnames."""
        return sorted(self._ns_address)

    def ns_host(self, hostname: Union[str, DomainName]) -> NsHost:
        """Metadata for a name-server hostname."""
        name = (
            hostname
            if isinstance(hostname, DomainName)
            else DomainName.parse(hostname)
        )
        host = self._ns_hosts.get(name)
        if host is None:
            raise ScenarioError(f"unknown name-server host {name}")
        return host

    def ns_address(self, hostname: Union[str, DomainName]) -> int:
        """Current address of a name-server host."""
        name = (
            hostname
            if isinstance(hostname, DomainName)
            else DomainName.parse(hostname)
        )
        address = self._ns_address.get(name)
        if address is None:
            raise ScenarioError(f"unknown name-server host {name}")
        return address

    def move_ns_host(
        self, hostname: Union[str, DomainName], new_infra_key: str
    ) -> Tuple[int, int]:
        """Renumber a name-server host onto another provider's network.

        Returns ``(old_address, new_address)``.  This is the simulation of
        the Netnod -> RU-CENTER renumbering of March 3, 2022.
        """
        name = (
            hostname
            if isinstance(hostname, DomainName)
            else DomainName.parse(hostname)
        )
        host = self.ns_host(name)
        old_address = self._ns_address[name]
        moved = NsHost(str(name), host.owner, new_infra_key)
        new_address = self._place_ns_host(moved)
        return old_address, new_address

    # ------------------------------------------------------------------
    # Customer hosting addresses
    # ------------------------------------------------------------------

    def hosting_address(
        self,
        provider_key: str,
        domain: Union[str, DomainName],
        asn: Optional[int] = None,
    ) -> int:
        """Deterministic apex address for ``domain`` at a provider.

        Shared-hosting collisions (two domains on one address) are
        intentional and realistic.
        """
        provider = self.catalog.get(provider_key)
        if not provider.offers_hosting and asn is None:
            raise ScenarioError(f"{provider_key} does not offer hosting")
        pool = self.hosting_pool(asn if asn is not None else provider.primary_asn)
        offset = stable_hash("hosting", provider_key, str(domain)) % pool.size
        return pool.first + offset

"""Provider model: hosting networks and DNS operators.

A provider owns one or more autonomous systems, address space inside them,
and (when it offers DNS) a fleet of name-server hostnames.  A name-server
host may be *operated on another provider's infrastructure* — the paper's
key example is RU-CENTER's cloud name servers (``*.nic.ru`` names) that
were served from Netnod's Swedish network until March 3, 2022.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple

from ..dns.name import DomainName
from ..errors import ScenarioError

__all__ = ["Role", "NsHost", "Provider"]


class Role(enum.Flag):
    """What services a provider sells."""

    HOSTING = enum.auto()
    DNS = enum.auto()
    PARKING = enum.auto()
    CA = enum.auto()


class NsHost:
    """One authoritative name-server hostname.

    ``owner`` is the provider whose service the host belongs to;
    ``infra`` is the provider whose network actually announces the host's
    address (usually the same, but not for outsourced anycast like the
    RU-CENTER/Netnod arrangement).
    """

    __slots__ = ("hostname", "owner", "infra")

    def __init__(self, hostname: str, owner: str, infra: Optional[str] = None) -> None:
        self.hostname = DomainName.parse(hostname)
        self.owner = owner
        self.infra = infra if infra is not None else owner

    @property
    def tld(self) -> str:
        """TLD of the host *name* (drives the TLD-dependency analysis)."""
        tld = self.hostname.tld
        assert tld is not None
        return tld

    def __repr__(self) -> str:
        extra = f" on {self.infra}" if self.infra != self.owner else ""
        return f"NsHost({self.hostname}, {self.owner}{extra})"


class Provider:
    """One hosting/DNS company in the simulated market."""

    __slots__ = ("key", "display", "country", "asns", "roles", "ns_hosts")

    def __init__(
        self,
        key: str,
        display: str,
        country: str,
        asns: Sequence[int],
        roles: Role,
        ns_hostnames: Sequence[str] = (),
        ns_infra: Optional[str] = None,
    ) -> None:
        if not asns:
            raise ScenarioError(f"provider {key} needs at least one ASN")
        if Role.DNS in roles and not ns_hostnames:
            raise ScenarioError(f"DNS provider {key} needs name-server hosts")
        self.key = key
        self.display = display
        self.country = country
        self.asns: Tuple[int, ...] = tuple(asns)
        self.roles = roles
        self.ns_hosts: Tuple[NsHost, ...] = tuple(
            NsHost(hostname, key, ns_infra) for hostname in ns_hostnames
        )

    @property
    def primary_asn(self) -> int:
        """The ASN used for customer hosting."""
        return self.asns[0]

    @property
    def offers_hosting(self) -> bool:
        """True when domains can point their apex A records here."""
        return bool(self.roles & (Role.HOSTING | Role.PARKING))

    def __repr__(self) -> str:
        return f"Provider({self.key}, AS{self.primary_asn}, {self.country})"

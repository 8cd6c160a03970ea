"""DNS and hosting plans: the configurations domains are assigned to.

A *DNS plan* is a concrete set of name-server hosts a domain delegates to
(possibly spanning two providers — primary plus secondary).  A *hosting
plan* is the set of networks the domain's apex A records live in (one
component normally, two for dual-homed setups).

For the columnar fast path, per-plan *derived label tables* precompute
everything the analysis needs — country composition, name-TLD
composition, per-TLD membership, origin ASNs — against a specific
infrastructure state (address plan + routing + geolocation).  A domain's
daily analysis then reduces to one table lookup by plan id.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dns.name import DomainName
from ..errors import ScenarioError
from ..geo.countries import RU
from ..geo.database import GeoDatabase
from ..net.rib import RoutingTable
from ..providers.addressing import AddressPlan
from ..registry.tld import RUSSIAN_TLDS

__all__ = [
    "LABEL_FULL",
    "LABEL_PART",
    "LABEL_NON",
    "LABEL_NAMES",
    "composition_label",
    "DnsPlan",
    "HostingPlan",
    "DnsPlanTable",
    "HostingPlanTable",
    "DnsPlanLabels",
    "HostingPlanLabels",
]

#: All measured locations inside Russia.
LABEL_FULL = 0
#: Some, but not all, measured locations inside Russia.
LABEL_PART = 1
#: No measured location inside Russia.
LABEL_NON = 2

LABEL_NAMES = {LABEL_FULL: "full", LABEL_PART: "part", LABEL_NON: "non"}


def composition_label(flags: Sequence[bool]) -> int:
    """Full/part/non from per-element "is Russian" flags."""
    if not flags:
        raise ScenarioError("cannot label an empty composition")
    russian = sum(bool(flag) for flag in flags)
    if russian == len(flags):
        return LABEL_FULL
    if russian == 0:
        return LABEL_NON
    return LABEL_PART


class DnsPlan:
    """A delegation target: the NS hostnames a domain's NS set contains."""

    __slots__ = ("key", "ns_hostnames")

    def __init__(self, key: str, ns_hostnames: Sequence[str]) -> None:
        if not ns_hostnames:
            raise ScenarioError(f"DNS plan {key} has no name servers")
        self.key = key
        self.ns_hostnames: Tuple[DomainName, ...] = tuple(
            DomainName.parse(hostname) for hostname in ns_hostnames
        )

    def ns_tlds(self) -> Tuple[str, ...]:
        """Distinct TLDs of the NS hostnames, sorted."""
        tlds = {hostname.tld for hostname in self.ns_hostnames}
        return tuple(sorted(tld for tld in tlds if tld is not None))

    def __repr__(self) -> str:
        return f"DnsPlan({self.key}, {len(self.ns_hostnames)} NS)"


class HostingPlan:
    """Where a domain's apex A records live.

    Each component is ``(provider_key, asn)``; the apex resolves to one
    address per component.
    """

    __slots__ = ("key", "components")

    def __init__(self, key: str, components: Sequence[Tuple[str, int]]) -> None:
        if not components:
            raise ScenarioError(f"hosting plan {key} has no components")
        self.key = key
        self.components: Tuple[Tuple[str, int], ...] = tuple(components)

    @property
    def primary_asn(self) -> int:
        """ASN of the first component."""
        return self.components[0][1]

    def asns(self) -> Tuple[int, ...]:
        """All component ASNs (duplicates removed, order kept)."""
        seen: List[int] = []
        for _, asn in self.components:
            if asn not in seen:
                seen.append(asn)
        return tuple(seen)

    def __repr__(self) -> str:
        return f"HostingPlan({self.key}, {self.components})"


class DnsPlanLabels:
    """Derived per-DNS-plan labels for one infrastructure epoch."""

    def __init__(
        self,
        geo_label: np.ndarray,
        tld_label: np.ndarray,
        tld_names: List[str],
        tld_membership: np.ndarray,
        ns_asns: List[Tuple[int, ...]],
        ns_countries: List[Tuple[Optional[str], ...]],
        ns_addresses: List[Tuple[int, ...]],
    ) -> None:
        self.geo_label = geo_label
        self.tld_label = tld_label
        self.tld_names = tld_names
        self.tld_membership = tld_membership  # bool [n_plans, n_tlds]
        self.ns_asns = ns_asns
        self.ns_countries = ns_countries
        self.ns_addresses = ns_addresses


class HostingPlanLabels:
    """Derived per-hosting-plan labels for one infrastructure epoch."""

    def __init__(
        self,
        geo_label: np.ndarray,
        primary_asn: np.ndarray,
        asn_sets: List[Tuple[int, ...]],
        countries: List[Tuple[Optional[str], ...]],
    ) -> None:
        self.geo_label = geo_label
        self.primary_asn = primary_asn
        self.asn_sets = asn_sets
        self.countries = countries


class DnsPlanTable:
    """All DNS plans of a scenario, indexed by dense integer ids."""

    def __init__(self) -> None:
        self._plans: List[DnsPlan] = []
        self._ids: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def add(self, plan: DnsPlan) -> int:
        """Register a plan; returns its id."""
        if plan.key in self._ids:
            raise ScenarioError(f"duplicate DNS plan key {plan.key}")
        self._plans.append(plan)
        self._ids[plan.key] = len(self._plans) - 1
        return self._ids[plan.key]

    def id_of(self, key: str) -> int:
        """Id for a plan key."""
        plan_id = self._ids.get(key)
        if plan_id is None:
            raise ScenarioError(f"unknown DNS plan {key}")
        return plan_id

    def plan(self, plan_id: int) -> DnsPlan:
        """Plan by id."""
        return self._plans[plan_id]

    def plans(self) -> List[DnsPlan]:
        """All plans, id order."""
        return list(self._plans)

    def derive(
        self,
        address_plan: AddressPlan,
        routing: RoutingTable,
        geo: GeoDatabase,
    ) -> DnsPlanLabels:
        """Compute the label table against one infrastructure state."""
        n = len(self._plans)
        geo_label = np.zeros(n, dtype=np.int8)
        tld_label = np.zeros(n, dtype=np.int8)
        all_tlds = sorted({tld for plan in self._plans for tld in plan.ns_tlds()})
        tld_col = {tld: i for i, tld in enumerate(all_tlds)}
        membership = np.zeros((n, len(all_tlds)), dtype=bool)
        ns_asns: List[Tuple[int, ...]] = []
        ns_countries: List[Tuple[Optional[str], ...]] = []
        ns_addresses: List[Tuple[int, ...]] = []

        for plan_id, plan in enumerate(self._plans):
            addresses = tuple(
                address_plan.ns_address(hostname) for hostname in plan.ns_hostnames
            )
            countries = tuple(geo.lookup(address) for address in addresses)
            asns = tuple(
                asn for asn in (routing.lookup(a) for a in addresses) if asn is not None
            )
            geo_label[plan_id] = composition_label([c == RU for c in countries])
            tlds = plan.ns_tlds()
            tld_label[plan_id] = composition_label(
                [tld in RUSSIAN_TLDS for tld in tlds]
            )
            for tld in tlds:
                membership[plan_id, tld_col[tld]] = True
            ns_asns.append(asns)
            ns_countries.append(countries)
            ns_addresses.append(addresses)

        return DnsPlanLabels(
            geo_label, tld_label, all_tlds, membership, ns_asns, ns_countries,
            ns_addresses,
        )


class HostingPlanTable:
    """All hosting plans of a scenario, indexed by dense integer ids."""

    def __init__(self) -> None:
        self._plans: List[HostingPlan] = []
        self._ids: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def add(self, plan: HostingPlan) -> int:
        """Register a plan; returns its id."""
        if plan.key in self._ids:
            raise ScenarioError(f"duplicate hosting plan key {plan.key}")
        self._plans.append(plan)
        self._ids[plan.key] = len(self._plans) - 1
        return self._ids[plan.key]

    def id_of(self, key: str) -> int:
        """Id for a plan key."""
        plan_id = self._ids.get(key)
        if plan_id is None:
            raise ScenarioError(f"unknown hosting plan {key}")
        return plan_id

    def plan(self, plan_id: int) -> HostingPlan:
        """Plan by id."""
        return self._plans[plan_id]

    def plans(self) -> List[HostingPlan]:
        """All plans, id order."""
        return list(self._plans)

    def derive(
        self,
        address_plan: AddressPlan,
        routing: RoutingTable,
        geo: GeoDatabase,
    ) -> HostingPlanLabels:
        """Compute the label table against one infrastructure state."""
        n = len(self._plans)
        geo_label = np.zeros(n, dtype=np.int8)
        primary_asn = np.zeros(n, dtype=np.int64)
        asn_sets: List[Tuple[int, ...]] = []
        countries: List[Tuple[Optional[str], ...]] = []

        for plan_id, plan in enumerate(self._plans):
            # Component country is a property of the pool, not of the
            # specific hashed address, so probe one pool address.
            comp_countries = []
            for provider_key, asn in plan.components:
                pool = address_plan.hosting_pool(asn)
                comp_countries.append(geo.lookup(pool.first))
            geo_label[plan_id] = composition_label(
                [c == RU for c in comp_countries]
            )
            primary_asn[plan_id] = plan.primary_asn
            asn_sets.append(plan.asns())
            countries.append(tuple(comp_countries))

        return HostingPlanLabels(geo_label, primary_asn, asn_sets, countries)

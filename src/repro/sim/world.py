"""The world model: who is assigned to what, when, and derived labels.

A :class:`World` combines the registry population, the provider market,
the address plan, per-domain plan assignments with their event history,
and the infrastructure event timeline.  It exposes exactly the views the
measurement layer needs:

* assignment state (hosting/DNS plan per domain) at any date,
* per-epoch derived label tables (country and TLD compositions, ASNs),
* per-domain raw measurement facts (NS names, NS/apex addresses),

and nothing about the analysis — the analysis layer must recover the
paper's findings from measurements alone.
"""

from __future__ import annotations

import bisect
import datetime as _dt
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScenarioError
from ..geo.database import GeoDatabase, with_override
from ..geo.service import GeoService
from ..net.prefix import Prefix
from ..net.rib import RoutingTable
from ..providers.addressing import AddressPlan
from ..providers.catalog import ProviderCatalog
from ..registry.population import DomainPopulation
from ..registry.whois import WhoisService
from ..registry.zonefile import ZoneFileService
from ..sanctions.lists import SanctionsList
from ..timeline import DateLike, as_date, day_index, from_day_index
from .events import DomainEventLog, Field, InfraEvent
from .plans import (
    DnsPlanLabels,
    DnsPlanTable,
    HostingPlanLabels,
    HostingPlanTable,
)

__all__ = ["InfraEpoch", "WorldDay", "World"]


class InfraEpoch:
    """Derived infrastructure state valid from ``start_day`` onward."""

    __slots__ = (
        "start_day",
        "routing",
        "geo",
        "dns_labels",
        "hosting_labels",
        "ns_addresses",
    )

    def __init__(
        self,
        start_day: int,
        routing: RoutingTable,
        geo: GeoDatabase,
        dns_labels: DnsPlanLabels,
        hosting_labels: HostingPlanLabels,
        ns_addresses: Dict[str, int],
    ) -> None:
        self.start_day = start_day
        self.routing = routing
        self.geo = geo
        self.dns_labels = dns_labels
        self.hosting_labels = hosting_labels
        self.ns_addresses = ns_addresses

    def __repr__(self) -> str:
        return f"InfraEpoch(from {from_day_index(self.start_day)})"


class WorldDay:
    """One day's assignment state (the fast collector's raw material)."""

    __slots__ = ("date", "active", "hosting_ids", "dns_ids", "epoch")

    def __init__(
        self,
        date: _dt.date,
        active: np.ndarray,
        hosting_ids: np.ndarray,
        dns_ids: np.ndarray,
        epoch: InfraEpoch,
    ) -> None:
        self.date = date
        #: Indices of domains registered on this date.
        self.active = active
        #: Hosting plan id per domain (whole population; index by .active).
        self.hosting_ids = hosting_ids
        #: DNS plan id per domain (whole population; index by .active).
        self.dns_ids = dns_ids
        self.epoch = epoch


class World:
    """The assembled simulation world."""

    def __init__(
        self,
        population: DomainPopulation,
        catalog: ProviderCatalog,
        address_plan: AddressPlan,
        dns_plans: DnsPlanTable,
        hosting_plans: HostingPlanTable,
        base_hosting: np.ndarray,
        base_dns: np.ndarray,
        events: DomainEventLog,
        infra_events: Sequence[InfraEvent],
        sanctions: SanctionsList,
        sanctioned_indices: np.ndarray,
        geo_lag_days: int = 0,
    ) -> None:
        if len(base_hosting) != len(population) or len(base_dns) != len(population):
            raise ScenarioError("base assignment arrays must cover the population")
        self.population = population
        self.catalog = catalog
        self.address_plan = address_plan
        self.dns_plans = dns_plans
        self.hosting_plans = hosting_plans
        self.base_hosting = base_hosting.astype(np.int32)
        self.base_dns = base_dns.astype(np.int32)
        self.events = events
        self.events.finalize()
        self.infra_events = sorted(infra_events, key=lambda e: e.day)
        self.sanctions = sanctions
        self.sanctioned_indices = np.asarray(sanctioned_indices, dtype=np.int64)
        self.whois = WhoisService(population)
        self.zonefiles = ZoneFileService(population)

        self.geo_service = GeoService(lag_days=geo_lag_days)
        self._epochs: List[InfraEpoch] = []
        self._epoch_days: List[int] = []
        self._build_epochs()

        #: Attached by the certificate simulation (see sim.certsim).
        self.pki = None
        #: Attached by the scenario builder (see sim.manifest).
        self.manifest = None

    # ------------------------------------------------------------------
    # Infrastructure epochs
    # ------------------------------------------------------------------

    def _build_epochs(self) -> None:
        lag = self.geo_service.lag_days
        start_day = 0
        if self.infra_events:
            start_day = min(0, min(e.day for e in self.infra_events))

        # Publish the base geolocation snapshot well before the study.
        self.geo_service.publish(
            from_day_index(start_day - 3650), self.address_plan.geo_database()
        )

        routing = self.address_plan.routing_table()

        boundaries = {start_day}
        for event in self.infra_events:
            boundaries.add(event.day)
            if event.geo_changes and lag > 0:
                boundaries.add(event.day + lag)

        pending = list(self.infra_events)
        for boundary in sorted(boundaries):
            while pending and pending[0].day <= boundary:
                event = pending.pop(0)
                event.apply_to_plan(self.address_plan)
                for prefix_text, new_asn in event.route_changes:
                    routing.announce(Prefix.parse(prefix_text), new_asn)
                if event.geo_changes:
                    updated = self.geo_service.epochs[-1][1]
                    for prefix_text, country in event.geo_changes:
                        prefix = Prefix.parse(prefix_text)
                        updated = with_override(
                            updated, prefix.first, prefix.last, country
                        )
                    self.geo_service.publish(from_day_index(event.day), updated)
            seen_geo = self.geo_service.database_at(from_day_index(boundary))
            dns_labels = self.dns_plans.derive(self.address_plan, routing, seen_geo)
            hosting_labels = self.hosting_plans.derive(
                self.address_plan, routing, seen_geo
            )
            ns_addresses = {
                str(hostname): self.address_plan.ns_address(hostname)
                for hostname in self.address_plan.ns_hostnames()
            }
            # Freeze the routing view for this epoch.
            frozen_routing = RoutingTable()
            for route in routing.routes():
                frozen_routing.announce(route.prefix, route.origin_asn)
            self._epochs.append(
                InfraEpoch(
                    boundary, frozen_routing, seen_geo, dns_labels, hosting_labels,
                    ns_addresses,
                )
            )
            self._epoch_days.append(boundary)

    def epoch_at(self, date: DateLike) -> InfraEpoch:
        """The infrastructure epoch in force on ``date``."""
        day = day_index(date)
        position = bisect.bisect_right(self._epoch_days, day) - 1
        if position < 0:
            position = 0
        return self._epochs[position]

    def epochs(self) -> List[InfraEpoch]:
        """All epochs, chronological."""
        return list(self._epochs)

    # ------------------------------------------------------------------
    # Assignment state
    # ------------------------------------------------------------------

    def hosting_state(self, date: DateLike) -> np.ndarray:
        """Hosting plan id per domain as of end of ``date``."""
        return self.events.state_at(self.base_hosting, Field.HOSTING, date)

    def dns_state(self, date: DateLike) -> np.ndarray:
        """DNS plan id per domain as of end of ``date``."""
        return self.events.state_at(self.base_dns, Field.DNS, date)

    def day_view(self, date: DateLike) -> WorldDay:
        """Random-access :class:`WorldDay` for one date."""
        date_obj = as_date(date)
        return WorldDay(
            date_obj,
            self.population.active_indices(date_obj),
            self.hosting_state(date_obj),
            self.dns_state(date_obj),
            self.epoch_at(date_obj),
        )

    def sweep(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> Iterator[WorldDay]:
        """Forward sweep of :class:`WorldDay` views (efficient path)."""
        start_day, end_day = day_index(start), day_index(end)
        if start_day > end_day:
            raise ScenarioError(f"empty sweep {start} .. {end}")
        hosting = self.events.state_at(self.base_hosting, Field.HOSTING, start_day)
        dns = self.events.state_at(self.base_dns, Field.DNS, start_day)
        day = start_day
        while day <= end_day:
            date_obj = from_day_index(day)
            # Copies: a yielded day must stay valid after the sweep moves on.
            yield WorldDay(
                date_obj,
                self.population.active_indices(date_obj),
                hosting.copy(),
                dns.copy(),
                self.epoch_at(date_obj),
            )
            next_day = day + step
            if next_day <= end_day:
                self.events.apply_window(hosting, Field.HOSTING, day, next_day)
                self.events.apply_window(dns, Field.DNS, day, next_day)
            day = next_day

    # ------------------------------------------------------------------
    # Per-domain facts
    # ------------------------------------------------------------------

    def apex_addresses(self, domain_index: int, date: DateLike) -> Tuple[int, ...]:
        """The apex A-record addresses of one domain on ``date``."""
        plan_id = int(self.hosting_state(date)[domain_index])
        return self.apex_addresses_for_plan(domain_index, plan_id)

    def apex_addresses_for_plan(
        self, domain_index: int, plan_id: int
    ) -> Tuple[int, ...]:
        """Apex addresses for a known hosting plan id.

        The domain's name comes from the population's columns
        (:meth:`~repro.registry.population.DomainPopulation.name`), so
        no :class:`~repro.registry.domain.DomainRecord` is built or
        cached for it.
        """
        plan = self.hosting_plans.plan(plan_id)
        name = self.population.name(domain_index)
        return tuple(
            self.address_plan.hosting_address(provider_key, name, asn)
            for provider_key, asn in plan.components
        )

    def ns_hostnames_for(self, domain_index: int, date: DateLike) -> Tuple[str, ...]:
        """NS host names the domain delegates to on ``date``."""
        plan_id = int(self.dns_state(date)[domain_index])
        plan = self.dns_plans.plan(plan_id)
        return tuple(str(hostname) for hostname in plan.ns_hostnames)

"""A public builder for custom scenarios and counterfactuals.

The calibrated conflict scenario is one configuration of the general
machinery (plans, weights, flows, pulses, infra events).  ``WorldBuilder``
exposes that machinery as a safe, validating API so downstream users can
compose their own worlds — or derive counterfactuals from the conflict
scenario ("what if Cloudflare had exited too?") and measure the outcome
with the unchanged analysis pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScenarioError
from ..providers.addressing import AddressPlan
from ..providers.catalog import ProviderCatalog, standard_catalog
from ..registry.population import DomainPopulation, PopulationConfig
from ..rng import derive_rng
from ..sanctions.lists import SanctionsList
from ..timeline import STUDY_DAYS, DateLike
from .conflict import (
    ConflictScenarioConfig,
    DNS_WEIGHTS,
    HOSTING_WEIGHTS,
    _dns_plans,
    _hosting_plans,
    _weight_vector,
)
from .events import Field, InfraEvent
from .flows import Flow, FlowEngine, Pulse
from .manifest import ScenarioManifest
from .world import World

__all__ = ["WorldBuilder", "counterfactual_flows"]


class WorldBuilder:
    """Compose a world from weights, flows, pulses, and infra events.

    By default the builder starts from the standard provider market and
    the conflict scenario's plan tables and 2017 weights, with *no*
    scripted events — a "peaceful baseline".  Add flows/pulses/events to
    taste, then :meth:`build`.
    """

    def __init__(
        self,
        scale: float = 1000.0,
        seed: int = 20220224,
        catalog: Optional[ProviderCatalog] = None,
    ) -> None:
        self._config = ConflictScenarioConfig(
            scale=scale, seed=seed, with_pki=False
        )
        self._catalog = catalog or standard_catalog()
        self._dns_weights: Dict[str, float] = dict(DNS_WEIGHTS)
        self._hosting_weights: Dict[str, float] = dict(HOSTING_WEIGHTS)
        self._flows: List[Flow] = []
        self._pulses: List[Pulse] = []
        self._infra_events: List[InfraEvent] = []
        self._manifest = ScenarioManifest()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def set_dns_weight(self, plan_key: str, weight: float) -> "WorldBuilder":
        """Override one DNS cohort's initial weight (percent)."""
        if weight < 0:
            raise ScenarioError(f"negative weight for {plan_key}")
        self._dns_weights[plan_key] = weight
        return self

    def add_flow(self, flow: Flow, note: str = "") -> "WorldBuilder":
        """Add a gradual reassignment."""
        self._flows.append(flow)
        if note:
            from ..timeline import from_day_index

            self._manifest.record(from_day_index(flow.start_day), "custom", note)
        return self

    def add_pulse(self, pulse: Pulse, note: str = "") -> "WorldBuilder":
        """Add an instantaneous partial migration."""
        self._pulses.append(pulse)
        if note:
            from ..timeline import from_day_index

            self._manifest.record(from_day_index(pulse.day), "custom", note)
        return self

    def add_infra_event(self, event: InfraEvent, note: str = "") -> "WorldBuilder":
        """Add an infrastructure-level change."""
        self._infra_events.append(event)
        if note:
            from ..timeline import from_day_index

            self._manifest.record(from_day_index(event.day), "custom", note)
        return self

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def build(self) -> World:
        """Assemble and validate the world."""
        config = self._config
        address_plan = AddressPlan(self._catalog)
        dns_table = _dns_plans(self._catalog)
        hosting_table = _hosting_plans(self._catalog)

        population = DomainPopulation(
            PopulationConfig(seed=config.seed, initial_count=config.initial_count)
        )
        n = len(population)
        rng = derive_rng(config.seed, "builder", "assignment")
        base_dns = rng.choice(
            len(dns_table), size=n, p=_weight_vector(dns_table, self._dns_weights)
        ).astype(np.int32)
        base_host = rng.choice(
            len(hosting_table),
            size=n,
            p=_weight_vector(hosting_table, self._hosting_weights),
        ).astype(np.int32)

        engine = FlowEngine(
            population,
            {
                Field.DNS: {p.key: i for i, p in enumerate(dns_table.plans())},
                Field.HOSTING: {
                    p.key: i for i, p in enumerate(hosting_table.plans())
                },
            },
            derive_rng(config.seed, "builder", "flows"),
        )
        events, _ = engine.run(
            base={Field.HOSTING: base_host, Field.DNS: base_dns},
            flows=self._flows,
            pulses=self._pulses,
            horizon_days=STUDY_DAYS,
        )

        world = World(
            population=population,
            catalog=self._catalog,
            address_plan=address_plan,
            dns_plans=dns_table,
            hosting_plans=hosting_table,
            base_hosting=base_host,
            base_dns=base_dns,
            events=events,
            infra_events=list(self._infra_events),
            sanctions=SanctionsList([]),
            sanctioned_indices=np.asarray([], dtype=np.int64),
        )
        world.manifest = self._manifest
        return world


def counterfactual_flows(
    provider_dns_plan: str,
    provider_hosting_plan: str,
    dns_refuge: str,
    hosting_refuge: str,
    start: DateLike,
    end: DateLike,
    dns_pp: float,
    hosting_pp: float,
) -> Tuple[List[Flow], List[Pulse]]:
    """Convenience: the flows modelling one provider's full market exit."""
    flows = [
        Flow(Field.DNS, [provider_dns_plan], dns_refuge, dns_pp, start, end),
        Flow(
            Field.HOSTING, [provider_hosting_plan], hosting_refuge, hosting_pp,
            start, end,
        ),
    ]
    return flows, []

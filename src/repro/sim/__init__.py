"""Simulation: world model, events, flows, and the conflict scenario."""

from .certsim import (
    CaSpec,
    CertSimConfig,
    PkiBundle,
    RUSSIAN_CA_ORG,
    SanctionedIssuanceSpec,
    simulate_pki,
)
from .conflict import ConflictScenarioConfig, build_pki, build_scenario, build_world
from .events import DomainEventLog, Field, InfraEvent
from .flows import Flow, FlowEngine, Pulse
from .plans import (
    LABEL_FULL,
    LABEL_NON,
    LABEL_PART,
    LABEL_NAMES,
    DnsPlan,
    DnsPlanTable,
    HostingPlan,
    HostingPlanTable,
    composition_label,
)
from .manifest import ScenarioManifest
from .validate import validate_world
from .world import InfraEpoch, World, WorldDay

__all__ = [
    "CaSpec",
    "CertSimConfig",
    "PkiBundle",
    "RUSSIAN_CA_ORG",
    "SanctionedIssuanceSpec",
    "simulate_pki",
    "ConflictScenarioConfig",
    "build_pki",
    "build_scenario",
    "build_world",
    "DomainEventLog",
    "Field",
    "InfraEvent",
    "Flow",
    "FlowEngine",
    "Pulse",
    "LABEL_FULL",
    "LABEL_NON",
    "LABEL_PART",
    "LABEL_NAMES",
    "DnsPlan",
    "DnsPlanTable",
    "HostingPlan",
    "HostingPlanTable",
    "composition_label",
    "ScenarioManifest",
    "validate_world",
    "InfraEpoch",
    "World",
    "WorldDay",
]

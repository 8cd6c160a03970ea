"""Declarative counterfactual scenarios (see :mod:`repro.scenario.spec`).

The public surface:

* :class:`ScenarioSpec` — a seed-pure, JSON round-trippable description
  of one world; :meth:`ScenarioSpec.resolve` turns a library id or a
  spec-file path into a spec, :meth:`ScenarioSpec.compile` into the
  :class:`~repro.sim.conflict.ConflictScenarioConfig` the simulator and
  archive fingerprints consume.
* The shipped library (:data:`LIBRARY`, :func:`get_scenario`,
  :func:`scenario_ids`): ``baseline``, ``no-invasion``, ``depeering``,
  ``ixp-disconnect``, ``sanctions-early``.
* :func:`world_digest`, which reduces a world to a comparable hash;
  archives compare by :func:`repro.archive.archive_digest`.
"""

from .digest import world_digest
from .library import LIBRARY, get_scenario, register_scenario, scenario_ids
from .spec import FlowSpec, ProviderExit, PulseSpec, ScenarioSpec, WaveSpec

__all__ = [
    "ScenarioSpec",
    "ProviderExit",
    "FlowSpec",
    "PulseSpec",
    "WaveSpec",
    "LIBRARY",
    "get_scenario",
    "register_scenario",
    "scenario_ids",
    "world_digest",
]

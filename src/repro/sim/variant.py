"""Compiled scenario deltas the world builder applies on top of baseline.

A :class:`ScenarioVariant` is what :meth:`repro.scenario.ScenarioSpec.compile`
produces from the declarative world block: a small, picklable object of
*resolved* deltas (plain :class:`~repro.sim.flows.Flow`/:class:`Pulse`
objects, concrete sanction waves) that travels inside
:class:`~repro.sim.conflict.ConflictScenarioConfig`, so the config alone
(pickled or not) rebuilds the identical counterfactual world.

The contract with :func:`~repro.sim.conflict.build_world` is strict:
``variant=None`` (the baseline) must leave every RNG draw untouched, so
baseline archive shards stay byte-identical to the pre-scenario-engine
build.  All deltas are therefore applied by *filtering and rescaling the
flow/pulse lists before the engine runs*, never by consuming extra draws
from the assignment stream.
"""

from __future__ import annotations

import datetime as _dt
from typing import List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..timeline import CONFLICT_START, day_index, from_day_index
from .flows import Flow, Pulse

__all__ = ["ScenarioVariant"]

#: Flows/pulses starting on or after this day are "conflict era" and are
#: the ones a variant may suppress or rescale; the pre-2022 drifts are
#: part of every world.
_CONFLICT_DAY = day_index(CONFLICT_START)


class ScenarioVariant:
    """Resolved world deltas for one counterfactual scenario.

    Parameters
    ----------
    conflict:
        When False the February 2022 events never happen: conflict-era
        flows and pulses are dropped, the birth-mix shift and the
        scripted sanctioned-domain moves are skipped, no sanctions are
        designated, and the Netnod cutoff does not occur.
    intensity:
        Multiplier on conflict-era migration volumes (flow ``total_pp``,
        pulse fractions/counts).  1.0 reproduces the paper's magnitudes.
    extra_flows / extra_pulses:
        Additional scenario-specific movements, already resolved to
        concrete :class:`Flow`/:class:`Pulse` objects against the
        standard plan tables.
    sanction_waves:
        Overrides the calibrated designation waves; ``None`` keeps the
        paper's four waves (or none at all when ``conflict`` is False).
    notes:
        ``(date, actor, description)`` manifest entries narrating the
        counterfactual timeline.
    """

    __slots__ = (
        "conflict", "intensity", "extra_flows", "extra_pulses",
        "sanction_waves", "notes",
    )

    def __init__(
        self,
        conflict: bool = True,
        intensity: float = 1.0,
        extra_flows: Sequence[Flow] = (),
        extra_pulses: Sequence[Pulse] = (),
        sanction_waves: Optional[Sequence[Tuple[_dt.date, int]]] = None,
        notes: Sequence[Tuple[_dt.date, str, str]] = (),
    ) -> None:
        if intensity <= 0:
            raise ScenarioError(f"variant intensity must be positive: {intensity}")
        self.conflict = bool(conflict)
        self.intensity = float(intensity)
        self.extra_flows = tuple(extra_flows)
        self.extra_pulses = tuple(extra_pulses)
        self.sanction_waves = (
            None
            if sanction_waves is None
            else tuple((date, int(count)) for date, count in sanction_waves)
        )
        self.notes = tuple(tuple(note) for note in notes)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(
        self, flows: Sequence[Flow], pulses: Sequence[Pulse]
    ) -> Tuple[List[Flow], List[Pulse]]:
        """The calibrated flow/pulse lists with this variant's deltas applied."""
        kept_flows: List[Flow] = []
        for flow in flows:
            if flow.start_day >= _CONFLICT_DAY:
                if not self.conflict:
                    continue
                flow = self._scale_flow(flow)
            kept_flows.append(flow)
        kept_pulses: List[Pulse] = []
        for pulse in pulses:
            if pulse.day >= _CONFLICT_DAY:
                if not self.conflict:
                    continue
                pulse = self._scale_pulse(pulse)
            kept_pulses.append(pulse)
        kept_flows.extend(self.extra_flows)
        kept_pulses.extend(self.extra_pulses)
        return kept_flows, kept_pulses

    def _scale_flow(self, flow: Flow) -> Flow:
        if self.intensity == 1.0:
            return flow
        return Flow(
            flow.field,
            flow.sources,
            flow.dest,
            flow.total_pp * self.intensity,
            from_day_index(flow.start_day),
            from_day_index(flow.end_day),
        )

    def _scale_pulse(self, pulse: Pulse) -> Pulse:
        if self.intensity == 1.0:
            return pulse
        if pulse.fraction is not None:
            return Pulse(
                pulse.field, pulse.sources, pulse.dest,
                from_day_index(pulse.day),
                fraction=min(1.0, pulse.fraction * self.intensity),
            )
        return Pulse(
            pulse.field, pulse.sources, pulse.dest,
            from_day_index(pulse.day),
            count=max(1, int(round(pulse.count * self.intensity))),
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def is_noop(self) -> bool:
        """True when applying this variant changes nothing."""
        return (
            self.conflict
            and self.intensity == 1.0
            and not self.extra_flows
            and not self.extra_pulses
            and self.sanction_waves is None
        )

    def __repr__(self) -> str:
        parts = []
        if not self.conflict:
            parts.append("conflict=False")
        if self.intensity != 1.0:
            parts.append(f"intensity={self.intensity:g}")
        if self.extra_flows:
            parts.append(f"{len(self.extra_flows)} extra flows")
        if self.extra_pulses:
            parts.append(f"{len(self.extra_pulses)} extra pulses")
        if self.sanction_waves is not None:
            parts.append(f"{len(self.sanction_waves)} sanction waves")
        return f"ScenarioVariant({', '.join(parts) or 'noop'})"

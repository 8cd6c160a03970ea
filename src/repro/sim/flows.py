"""Cohort flows: turning scenario intent into per-domain events.

Scenario authors express movement as either a gradual :class:`Flow`
("5.3 percentage points drift from these plans to that plan between these
dates") or an instantaneous :class:`Pulse` ("on March 16, 42.8% of the
domains on this plan move to that plan").  The :class:`FlowEngine` runs a
forward pass over the timeline, drawing the individual domains that move
each day, and emits a :class:`~repro.sim.events.DomainEventLog` plus the
final assignment arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScenarioError
from ..registry.population import DomainPopulation
from ..timeline import DateLike, day_index
from .events import DomainEventLog, Field

__all__ = ["Flow", "Pulse", "FlowEngine"]


class Flow:
    """A gradual reassignment totalling ``total_pp`` percentage points.

    The daily expected move count is ``total_pp/100 × active ÷ duration``,
    drawn Poisson, picking uniformly among active domains currently on a
    source plan.
    """

    def __init__(
        self,
        field: Field,
        sources: Sequence[str],
        dest: str,
        total_pp: float,
        start: DateLike,
        end: DateLike,
    ) -> None:
        if total_pp <= 0:
            raise ScenarioError(f"flow needs positive total_pp, got {total_pp}")
        self.field = field
        self.sources = tuple(sources)
        self.dest = dest
        self.total_pp = total_pp
        self.start_day = day_index(start)
        self.end_day = day_index(end)
        if self.end_day <= self.start_day:
            raise ScenarioError("flow window is empty")

    @property
    def duration(self) -> int:
        """Days the flow is active."""
        return self.end_day - self.start_day

    def __repr__(self) -> str:
        return (
            f"Flow({self.field.name} {self.sources} -> {self.dest} "
            f"{self.total_pp}pp over days {self.start_day}..{self.end_day})"
        )


class Pulse:
    """An instantaneous partial migration on one day.

    Either ``fraction`` of the current source members move, or an exact
    ``count`` of them (whichever is given).
    """

    def __init__(
        self,
        field: Field,
        sources: Sequence[str],
        dest: str,
        day: DateLike,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        if (fraction is None) == (count is None):
            raise ScenarioError("pulse needs exactly one of fraction/count")
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ScenarioError(f"pulse fraction out of (0, 1]: {fraction}")
        if count is not None and count < 0:
            raise ScenarioError(f"negative pulse count: {count}")
        self.field = field
        self.sources = tuple(sources)
        self.dest = dest
        self.day = day_index(day)
        self.fraction = fraction
        self.count = count

    def __repr__(self) -> str:
        quantum = f"{self.fraction:.0%}" if self.fraction is not None else str(self.count)
        return (
            f"Pulse({self.field.name} {self.sources} -> {self.dest} "
            f"{quantum} on day {self.day})"
        )


#: One membership column: which domains sit on a source set's plans.
#: Keyed by ``(field, sources)``; holds the plan-id lookup table of the
#: sources and the per-domain column it gave.
_Members = Dict[Tuple[Field, Tuple[str, ...]], Tuple[np.ndarray, np.ndarray]]


class FlowEngine:
    """Executes flows and pulses into concrete per-domain events.

    The forward pass keeps its per-domain masks up to date rather than
    rebuilding them, so a move costs two population-length boolean
    passes plus work in proportion to the domains it moves:

    * ``active`` (registered and not excluded) flips only the domains
      born or deleted since the previous event day, found in
      ``created``/``deleted`` sorted once;
    * each distinct ``(field, sources)`` set keeps a boolean column of
      the domains on one of its plans.  It is built on its first move,
      set at the picks after every move on its field, and dropped after
      its last flow or pulse day.

    The candidates, ``active & column``, are the same sorted indices a
    fresh ``np.isin`` over the current assignment gives, so every draw is
    the same.
    """

    def __init__(
        self,
        population: DomainPopulation,
        plan_ids: Dict[Field, Dict[str, int]],
        rng: np.random.Generator,
    ) -> None:
        self._population = population
        self._plan_ids = plan_ids
        self._rng = rng
        self._plan_count = {
            field: max(table.values(), default=-1) + 1
            for field, table in plan_ids.items()
        }

    def _resolve(self, field: Field, keys: Sequence[str]) -> np.ndarray:
        table = self._plan_ids[field]
        try:
            return np.asarray([table[key] for key in keys], dtype=np.int32)
        except KeyError as exc:
            raise ScenarioError(f"unknown plan key {exc.args[0]!r}") from exc

    def run(
        self,
        base: Dict[Field, np.ndarray],
        flows: Sequence[Flow],
        pulses: Sequence[Pulse],
        horizon_days: int,
        exclude: Optional[np.ndarray] = None,
    ) -> Tuple[DomainEventLog, Dict[Field, np.ndarray]]:
        """Execute everything; returns (event log, final state arrays).

        Domains flagged in ``exclude`` are never picked by random draws —
        scenarios use this to keep scripted cohorts (the sanctioned set)
        out of background churn.
        """
        events = DomainEventLog()
        state = {field: array.copy() for field, array in base.items()}
        for field, array in state.items():
            count = self._plan_count.get(field)
            if count is not None and len(array) and (array.min() < 0 or array.max() >= count):
                raise ScenarioError(f"{field.name} base assignment holds an unknown plan id")
        created = self._population.created
        deleted = self._population.deleted
        eligible = (
            ~exclude if exclude is not None
            else np.ones(len(self._population), dtype=bool)
        )

        flows_by_day: Dict[int, List[Flow]] = {}
        for flow in flows:
            for day in range(max(flow.start_day, 0), min(flow.end_day, horizon_days)):
                flows_by_day.setdefault(day, []).append(flow)
        pulses_by_day: Dict[int, List[Pulse]] = {}
        for pulse in pulses:
            pulses_by_day.setdefault(pulse.day, []).append(pulse)
        event_days = sorted(set(flows_by_day) | set(pulses_by_day))

        # Each source set's membership column goes after its last day.
        last_day: Dict[Tuple[Field, Tuple[str, ...]], int] = {}
        for day in event_days:
            for move in flows_by_day.get(day, []) + pulses_by_day.get(day, []):
                last_day[(move.field, move.sources)] = day
        retiring: Dict[int, List[Tuple[Field, Tuple[str, ...]]]] = {}
        for key, day in last_day.items():
            retiring.setdefault(day, []).append(key)

        births = np.argsort(created, kind="stable")
        birth_days = created[births]
        deaths = np.argsort(deleted, kind="stable")
        death_days = deleted[deaths]
        born = died = 0
        active = np.zeros(len(self._population), dtype=bool)
        active_count = 0
        members: _Members = {}
        for day in event_days:
            # ``active`` becomes (created <= day) & (day < deleted) & eligible.
            upto = int(np.searchsorted(birth_days, day, side="right"))
            newborn = births[born:upto]
            newborn = newborn[eligible[newborn] & (day < deleted[newborn])]
            active[newborn] = True
            active_count += len(newborn)
            born = upto
            upto = int(np.searchsorted(death_days, day, side="right"))
            dying = deaths[died:upto]
            active_count -= int(np.count_nonzero(active[dying]))
            active[dying] = False
            died = upto
            if active_count:
                for flow in flows_by_day.get(day, []):
                    expected = flow.total_pp / 100.0 * active_count / flow.duration
                    moves = int(self._rng.poisson(expected))
                    if moves == 0:
                        continue
                    self._move(
                        events, state, active, members, flow.field, flow.sources,
                        flow.dest, day, count=moves,
                    )
                for pulse in pulses_by_day.get(day, []):
                    self._move(
                        events, state, active, members, pulse.field, pulse.sources,
                        pulse.dest, day, fraction=pulse.fraction, count=pulse.count,
                    )
            for key in retiring.get(day, []):
                members.pop(key, None)
        return events, state

    def _move(
        self,
        events: DomainEventLog,
        state: Dict[Field, np.ndarray],
        active: np.ndarray,
        members: _Members,
        field: Field,
        sources: Tuple[str, ...],
        dest: str,
        day: int,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        column = members.get((field, sources))
        if column is None:
            is_source = np.zeros(self._plan_count[field], dtype=bool)
            is_source[self._resolve(field, sources)] = True
            column = members[(field, sources)] = (is_source, is_source[state[field]])
        dest_id = self._plan_ids[field].get(dest)
        if dest_id is None:
            raise ScenarioError(f"unknown plan key {dest!r}")
        candidates = np.flatnonzero(active & column[1])
        if len(candidates) == 0:
            return
        if fraction is not None:
            take = int(round(fraction * len(candidates)))
        else:
            assert count is not None
            take = min(count, len(candidates))
        if take <= 0:
            return
        picks = self._rng.choice(candidates, size=take, replace=False)
        for index in picks:
            events.add(day, int(index), field, dest_id)
        state[field][picks] = dest_id
        for (member_field, _), (is_source, member) in members.items():
            if member_field == field:
                member[picks] = is_source[dest_id]

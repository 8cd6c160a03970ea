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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


#: log2 of the positions per block of a source set's candidate column.
BLOCK_SHIFT = 10
BLOCK = 1 << BLOCK_SHIFT


class _BlockColumn:
    """A boolean column with the count of its set positions per block.

    The column is padded with ``False`` to whole blocks of
    :data:`BLOCK` positions.  :meth:`positions` maps ranks among the
    set positions to the positions themselves, reading only the blocks
    the ranks fall in.
    """

    def __init__(self, column: np.ndarray) -> None:
        blocks = -(-len(column) // BLOCK)
        self.column = np.zeros(blocks * BLOCK, dtype=bool)
        self.column[: len(column)] = column
        self.counts = np.count_nonzero(self.column.reshape(blocks, BLOCK), axis=1)

    @property
    def total(self) -> int:
        """The number of set positions."""
        return int(self.counts.sum())

    def assign(self, indices: np.ndarray, values) -> None:
        """``column[indices] = values`` for distinct ``indices``, counts kept."""
        old = self.column[indices]
        self.column[indices] = values
        np.add.at(
            self.counts, indices >> BLOCK_SHIFT, np.subtract(values, old, dtype=np.intp)
        )

    def positions(self, ranks: np.ndarray) -> np.ndarray:
        """``np.flatnonzero(column)[ranks]``, in the order of ``ranks``."""
        counts = self.counts
        blocks = counts.cumsum().searchsorted(ranks, side="right")
        hit = np.zeros(len(counts), dtype=bool)
        hit[blocks] = True
        touched = hit.nonzero()[0]
        # The touched blocks' set positions, as offsets into those blocks
        # laid end to end: a rank's index among them is the rank less the
        # set positions of the blocks skipped before it.
        found = self.column.reshape(-1, BLOCK)[touched].ravel().nonzero()[0]
        found = found[ranks - np.where(hit, 0, counts).cumsum()[blocks]]
        return (touched[found >> BLOCK_SHIFT] << BLOCK_SHIFT) | (found & (BLOCK - 1))


class _SourceSet:
    """One ``(field, sources)`` set's candidates: ``active & on a source plan``.

    ``ids`` are the source plan ids; ``synced`` holds the birth and death
    cursors of the forward pass when the column last caught up with
    ``active``.
    """

    __slots__ = ("field", "ids", "is_source", "candidates", "synced")

    def __init__(
        self,
        field: Field,
        ids: np.ndarray,
        is_source: np.ndarray,
        candidates: _BlockColumn,
        synced: Tuple[int, int],
    ) -> None:
        self.field = field
        self.ids = frozenset(ids.tolist())
        self.is_source = is_source
        self.candidates = candidates
        self.synced = synced


class _Membership:
    """The forward pass's masks: who is active, and each source set's candidates.

    ``active`` (registered and not excluded) flips only the domains born
    or deleted since the previous event day, found in ``created`` and
    ``deleted`` sorted once.  A source set's column is built on its first
    move.  After every move it is set at the picks if it is on the moved
    field and the move can change its view of them; it catches up with
    the births and deaths since its last move only when it is next used,
    so an event day costs nothing for the sets it does not move.
    """

    def __init__(
        self,
        population: DomainPopulation,
        eligible: np.ndarray,
        plan_count: Dict[Field, int],
        resolve: Callable[[Field, Sequence[str]], np.ndarray],
    ) -> None:
        self._deleted = population.deleted
        self._eligible = eligible
        self._plan_count = plan_count
        self._resolve = resolve
        self._births = np.argsort(population.created, kind="stable")
        self._birth_days = population.created[self._births]
        self._deaths = np.argsort(self._deleted, kind="stable")
        self._death_days = self._deleted[self._deaths]
        self._born = self._died = 0
        self.active = np.zeros(len(population), dtype=bool)
        self.active_count = 0
        self._sets: Dict[Tuple[Field, Tuple[str, ...]], _SourceSet] = {}

    def advance(self, day: int) -> None:
        """``active`` becomes ``(created <= day) & (day < deleted) & eligible``."""
        active = self.active
        upto = int(self._birth_days.searchsorted(day, side="right"))
        if upto > self._born:
            newborn = self._births[self._born:upto]
            newborn = newborn[self._eligible[newborn] & (day < self._deleted[newborn])]
            active[newborn] = True
            self.active_count += len(newborn)
            self._born = upto
        upto = int(self._death_days.searchsorted(day, side="right"))
        if upto > self._died:
            dying = self._deaths[self._died:upto]
            self.active_count -= int(np.count_nonzero(active[dying]))
            active[dying] = False
            self._died = upto

    def candidates(
        self, field: Field, sources: Tuple[str, ...], plans: np.ndarray
    ) -> _SourceSet:
        """The set as of today; ``plans`` is ``field``'s state."""
        key = (field, sources)
        entry = self._sets.get(key)
        if entry is None:
            ids = self._resolve(field, sources)
            is_source = np.zeros(self._plan_count[field], dtype=bool)
            is_source[ids] = True
            entry = self._sets[key] = _SourceSet(
                field, ids, is_source, _BlockColumn(self.active & is_source[plans]),
                (self._born, self._died),
            )
        elif entry.synced != (self._born, self._died):
            born, died = entry.synced
            for changed in (
                self._births[born:self._born], self._deaths[died:self._died]
            ):
                entry.candidates.assign(
                    changed, self.active[changed] & entry.is_source[plans[changed]]
                )
            entry.synced = (self._born, self._died)
        return entry

    def moved(self, moving: _SourceSet, picks: np.ndarray, dest_id: int) -> None:
        """Every set on ``moving``'s field after its ``picks`` moved to ``dest_id``.

        A pick was on one of ``moving``'s plans, so a set that holds
        ``dest_id`` and all of those plans, or none of them, is left as
        it is.  The picks are active today; a set behind on births and
        deaths sets its own view of them right when it catches up.
        """
        for entry in self._sets.values():
            if entry.field != moving.field:
                continue
            into = dest_id in entry.ids
            if moving.ids <= entry.ids if into else moving.ids.isdisjoint(entry.ids):
                continue
            entry.candidates.assign(picks, into)

    def retire(self, field: Field, sources: Tuple[str, ...]) -> None:
        """Drop a set after its last flow or pulse day."""
        self._sets.pop((field, sources), None)


class FlowEngine:
    """Executes flows and pulses into concrete per-domain events.

    The forward pass keeps its masks up to date rather than rebuilding
    them (:class:`_Membership`), and a move draws from the candidate
    count alone: ``Generator.choice(candidates, take, replace=False)``
    is ``candidates[choice(len(candidates), take, replace=False)]``,
    final generator state included.  So a move costs its draw plus a
    scan of the blocks its ranks fall in, not a pass over the whole
    population.  The candidates, ``active & on a source plan``, are the
    same sorted indices a fresh ``np.isin`` over the current assignment
    gives, so every draw is the same.
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

        # Each source set's column goes after its last day.
        last_day: Dict[Tuple[Field, Tuple[str, ...]], int] = {}
        for day in event_days:
            for move in flows_by_day.get(day, []) + pulses_by_day.get(day, []):
                last_day[(move.field, move.sources)] = day
        retiring: Dict[int, List[Tuple[Field, Tuple[str, ...]]]] = {}
        for key, day in last_day.items():
            retiring.setdefault(day, []).append(key)

        members = _Membership(
            self._population, eligible, self._plan_count, self._resolve
        )
        for day in event_days:
            members.advance(day)
            if members.active_count:
                for flow in flows_by_day.get(day, []):
                    expected = flow.total_pp / 100.0 * members.active_count / flow.duration
                    moves = int(self._rng.poisson(expected))
                    if moves == 0:
                        continue
                    self._move(
                        events, state, members, flow.field, flow.sources,
                        flow.dest, day, count=moves,
                    )
                for pulse in pulses_by_day.get(day, []):
                    self._move(
                        events, state, members, pulse.field, pulse.sources,
                        pulse.dest, day, fraction=pulse.fraction, count=pulse.count,
                    )
            for field, sources in retiring.get(day, []):
                members.retire(field, sources)
        return events, state

    def _move(
        self,
        events: DomainEventLog,
        state: Dict[Field, np.ndarray],
        members: _Membership,
        field: Field,
        sources: Tuple[str, ...],
        dest: str,
        day: int,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        moving = members.candidates(field, sources, state[field])
        dest_id = self._plan_ids[field].get(dest)
        if dest_id is None:
            raise ScenarioError(f"unknown plan key {dest!r}")
        candidates = moving.candidates
        total = candidates.total
        if total == 0:
            return
        if fraction is not None:
            take = int(round(fraction * total))
        else:
            assert count is not None
            take = min(count, total)
        if take <= 0:
            return
        picks = candidates.positions(self._rng.choice(total, size=take, replace=False))
        events.add_many(day, picks, field, dest_id)
        state[field][picks] = dest_id
        members.moved(moving, picks, dest_id)

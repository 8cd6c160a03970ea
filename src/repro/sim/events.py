"""Event model: per-domain reassignments and infrastructure changes.

Two event families drive the scenario:

* **Domain events** — one domain switches its hosting or DNS plan on a
  given day (a customer migrating, a provider dropping customers, parked
  inventory bouncing between parking services).  Stored columnar for fast
  forward sweeps and random-access replay.
* **Infra events** — the infrastructure itself changes (a name server is
  renumbered onto another network, a prefix is transferred, geolocation is
  re-published).  These change *derived labels* for every domain at once.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScenarioError
from ..providers.addressing import AddressPlan
from ..timeline import DateLike, day_index

__all__ = ["Field", "DomainEventLog", "InfraEvent"]


class Field(enum.IntEnum):
    """Which assignment a domain event changes."""

    HOSTING = 0
    DNS = 1


class DomainEventLog:
    """Columnar, day-ordered log of per-domain plan changes."""

    def __init__(self) -> None:
        self._days: List[int] = []
        self._domains: List[int] = []
        self._fields: List[int] = []
        self._values: List[int] = []
        self._finalized: Optional[Tuple[np.ndarray, ...]] = None

    def __len__(self) -> int:
        return len(self._days)

    def add(self, day: DateLike, domain_index: int, field: Field, plan_id: int) -> None:
        """Record one reassignment."""
        if self._finalized is not None:
            raise ScenarioError("event log already finalized")
        self._days.append(day_index(day))
        self._domains.append(domain_index)
        self._fields.append(int(field))
        self._values.append(plan_id)

    def add_many(
        self, day: DateLike, domain_indices: np.ndarray, field: Field, plan_id: int
    ) -> None:
        """Record one reassignment per domain, in the order given."""
        if self._finalized is not None:
            raise ScenarioError("event log already finalized")
        count = len(domain_indices)
        self._days.extend([day_index(day)] * count)
        self._domains.extend(np.asarray(domain_indices).tolist())
        self._fields.extend([int(field)] * count)
        self._values.extend([plan_id] * count)

    def finalize(self) -> None:
        """Freeze and sort the log; required before queries."""
        if self._finalized is not None:
            return
        days = np.asarray(self._days, dtype=np.int64)
        order = np.argsort(days, kind="stable")
        self._finalized = (
            days[order],
            np.asarray(self._domains, dtype=np.int64)[order],
            np.asarray(self._fields, dtype=np.int8)[order],
            np.asarray(self._values, dtype=np.int32)[order],
        )

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._finalized is None:
            raise ScenarioError("event log not finalized")
        return self._finalized

    def apply_window(
        self,
        state: np.ndarray,
        field: Field,
        after_day: int,
        through_day: int,
    ) -> None:
        """Apply events with ``after_day < day <= through_day`` to ``state``.

        Events are applied in chronological order; with multiple events
        for one domain in the window, the last wins.
        """
        days, domains, fields, values = self._arrays()
        lo = np.searchsorted(days, after_day, side="right")
        hi = np.searchsorted(days, through_day, side="right")
        if lo >= hi:
            return
        mask = fields[lo:hi] == int(field)
        window_domains = domains[lo:hi][mask]
        window_values = values[lo:hi][mask]
        if len(window_domains) == 0:
            return
        # Last-write-wins without a Python loop: first occurrence in the
        # reversed window is the chronologically last event per domain.
        rev_domains = window_domains[::-1]
        rev_values = window_values[::-1]
        unique_domains, first_positions = np.unique(rev_domains, return_index=True)
        state[unique_domains] = rev_values[first_positions]

    def state_at(
        self, base: np.ndarray, field: Field, day: DateLike
    ) -> np.ndarray:
        """Full replay: the plan array as of end of ``day``."""
        state = base.copy()
        self.apply_window(state, field, after_day=-(10**9), through_day=day_index(day))
        return state

    def event_days(self) -> np.ndarray:
        """Distinct days with at least one event, ascending."""
        days, _, _, _ = self._arrays()
        return np.unique(days)


class InfraEvent:
    """A change to the shared infrastructure on a given day."""

    def __init__(
        self,
        day: DateLike,
        description: str,
        ns_moves: Sequence[Tuple[str, str]] = (),
        route_changes: Sequence[Tuple[str, int]] = (),
        geo_changes: Sequence[Tuple[str, str]] = (),
        custom: Optional[Callable[[AddressPlan], None]] = None,
    ) -> None:
        self.day = day_index(day)
        self.description = description
        #: (ns hostname, new infra provider key) renumberings.
        self.ns_moves = tuple(ns_moves)
        #: (prefix text, new origin ASN) BGP-level transfers.
        self.route_changes = tuple(route_changes)
        #: (prefix text, new country) geolocation re-publications.
        self.geo_changes = tuple(geo_changes)
        self.custom = custom

    def apply_to_plan(self, plan: AddressPlan) -> None:
        """Apply the address-plan-level parts of the event."""
        for hostname, new_infra in self.ns_moves:
            plan.move_ns_host(hostname, new_infra)
        if self.custom is not None:
            self.custom(plan)

    def __repr__(self) -> str:
        return f"InfraEvent(day {self.day}: {self.description})"

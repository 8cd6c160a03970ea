"""The fast (columnar) measurement collector.

Derives per-day measurement state directly from world assignment arrays.
Record-level equivalence with the resolving collector is asserted by the
integration suite; long longitudinal sweeps then use this path, exactly
as a production measurement platform trades per-query work for
throughput.
"""

from __future__ import annotations

import datetime as _dt
from typing import Iterator, Sequence, Set

import numpy as np

from ..errors import MeasurementError
from ..rng import derive_rng
from ..timeline import DateLike
from ..sim.world import World, WorldDay
from .records import DomainMeasurement

__all__ = ["DailySnapshot", "FastCollector"]

#: The paper's footnote-8 measurement outage date.
DEFAULT_OUTAGE_DATES = (_dt.date(2021, 3, 22),)
_OUTAGE_COVERAGE = 0.62


class DailySnapshot:
    """One day of collected measurements, columnar."""

    __slots__ = ("date", "measured", "hosting_ids", "dns_ids", "epoch", "_world")

    def __init__(self, world: World, day: WorldDay, measured: np.ndarray) -> None:
        self.date = day.date
        #: Indices of domains actually measured this day (outages shrink it).
        self.measured = measured
        self.hosting_ids = day.hosting_ids
        self.dns_ids = day.dns_ids
        self.epoch = day.epoch
        self._world = world

    def __len__(self) -> int:
        return len(self.measured)

    @property
    def world(self) -> World:
        """The world this snapshot was collected from."""
        return self._world

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        """The measured subset restricted to ``indices`` (e.g. sanctioned)."""
        wanted = np.asarray(indices, dtype=np.int64)
        mask = np.isin(self.measured, wanted)
        return self.measured[mask]

    def measurement_for(self, domain_index: int) -> DomainMeasurement:
        """Materialise the per-domain record (slow; used for sampling)."""
        world = self._world
        record = world.population.record(int(domain_index))
        dns_plan = world.dns_plans.plan(int(self.dns_ids[domain_index]))
        ns_names = tuple(str(h) for h in dns_plan.ns_hostnames)
        ns_addresses = tuple(
            self.epoch.ns_addresses[name] for name in ns_names
        )
        apex = world.apex_addresses_for_plan(
            int(domain_index), int(self.hosting_ids[domain_index])
        )
        return DomainMeasurement(
            self.date, record.name, ns_names, ns_addresses, apex,
            domain_index=int(domain_index),
        )


class FastCollector:
    """Sweeps the world day by day, honouring measurement outages."""

    def __init__(
        self,
        world: World,
        outage_dates: Sequence[_dt.date] = DEFAULT_OUTAGE_DATES,
        outage_coverage: float = _OUTAGE_COVERAGE,
        seed: int = 7,
    ) -> None:
        if not 0.0 <= outage_coverage <= 1.0:
            raise MeasurementError(
                f"outage_coverage out of [0, 1]: {outage_coverage}"
            )
        self._world = world
        self._outages: Set[_dt.date] = set(outage_dates)
        self._outage_coverage = outage_coverage
        self._seed = seed

    @property
    def world(self) -> World:
        """The world being measured."""
        return self._world

    def collect(self, date: DateLike) -> DailySnapshot:
        """Collect one day (random access)."""
        day = self._world.day_view(date)
        return DailySnapshot(self._world, day, self._measured(day))

    def sweep(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> Iterator[DailySnapshot]:
        """Collect every ``step`` days in [start, end] (efficient path)."""
        for day in self._world.sweep(start, end, step):
            yield DailySnapshot(self._world, day, self._measured(day))

    def _measured(self, day: WorldDay) -> np.ndarray:
        if day.date not in self._outages:
            return day.active
        rng = derive_rng(self._seed, "outage", day.date.isoformat())
        keep = rng.random(len(day.active)) < self._outage_coverage
        return day.active[keep]

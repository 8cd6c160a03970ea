"""Provider movement analysis (Figures 6 and 7, Section 3.4).

Compares the set of domains resolving into one provider's ASN at two
dates and reports: how many remained, how many relocated away (and to
which networks), how many arrived from elsewhere, and — via whois, as the
paper does with Cisco's Whois Domain API — how many of the arrivals are
*newly registered* rather than relocated.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional, Set, Tuple


from ..errors import AnalysisError
from ..measurement.fast import DailySnapshot, FastCollector
from ..registry.whois import WhoisService
from .topasn import asn_members

__all__ = ["MovementReport", "analyze_movement"]


class MovementReport:
    """Outcome of a two-date movement comparison for one ASN."""

    def __init__(
        self,
        asn: int,
        date_from: _dt.date,
        date_to: _dt.date,
        original: int,
        remained: int,
        relocated: int,
        expired: int,
        inflow_relocated: int,
        inflow_new: int,
        relocation_destinations: Dict[int, int],
        inflow_sources: Dict[int, int],
        inflow_new_names: Optional[List] = None,
    ) -> None:
        self.asn = asn
        self.date_from = date_from
        self.date_to = date_to
        #: Domains in the ASN on ``date_from``.
        self.original = original
        #: Original domains still in the ASN on ``date_to``.
        self.remained = remained
        #: Original domains now resolving into a different ASN.
        self.relocated = relocated
        #: Original domains no longer registered at all.
        self.expired = expired
        #: Pre-existing domains that moved *into* the ASN.
        self.inflow_relocated = inflow_relocated
        #: Domains first registered after ``date_from`` that appeared here.
        self.inflow_new = inflow_new
        #: Destination ASN -> count, for the relocated set.
        self.relocation_destinations = relocation_destinations
        #: Source ASN -> count, for the relocated inflow.
        self.inflow_sources = inflow_sources
        #: Names of the newly registered arrivals (the whois follow-up of
        #: the paper's footnote 10).
        self.inflow_new_names = list(inflow_new_names or [])

    @property
    def remained_share(self) -> float:
        """Fraction of the original set that stayed (0..1)."""
        return self.remained / self.original if self.original else 0.0

    @property
    def relocated_share(self) -> float:
        """Fraction of the original set that relocated (0..1)."""
        return self.relocated / self.original if self.original else 0.0

    @property
    def inflow_total(self) -> int:
        """All arrivals (relocated + newly registered)."""
        return self.inflow_relocated + self.inflow_new

    def top_destinations(self, k: int = 5) -> List[Tuple[int, int]]:
        """The ``k`` most common relocation destination ASNs."""
        ranked = sorted(
            self.relocation_destinations.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:k]

    def destination_share(self, asn: int) -> float:
        """Fraction of the relocated set that landed in ``asn`` (0..1)."""
        if self.relocated == 0:
            return 0.0
        return self.relocation_destinations.get(asn, 0) / self.relocated

    def __repr__(self) -> str:
        return (
            f"MovementReport(AS{self.asn} {self.date_from}->{self.date_to} "
            f"orig={self.original} remained={self.remained} "
            f"relocated={self.relocated} in={self.inflow_total})"
        )


def _primary_asn_of(snapshot: DailySnapshot, index: int) -> int:
    labels = snapshot.epoch.hosting_labels
    return int(labels.primary_asn[snapshot.hosting_ids[index]])


def analyze_movement(
    collector: FastCollector,
    asn: int,
    date_from: _dt.date,
    date_to: _dt.date,
    whois: Optional[WhoisService] = None,
) -> MovementReport:
    """Compare one ASN's customer set between two dates."""
    if date_to <= date_from:
        raise AnalysisError(f"movement window is empty: {date_from} -> {date_to}")
    snap_from = collector.collect(date_from)
    snap_to = collector.collect(date_to)
    whois = whois or collector.world.whois

    before: Set[int] = set(int(i) for i in asn_members(snap_from, asn))
    after: Set[int] = set(int(i) for i in asn_members(snap_to, asn))
    active_to: Set[int] = set(int(i) for i in snap_to.measured)

    remained = before & after
    gone = before - after
    expired = {index for index in gone if index not in active_to}
    relocated = gone - expired

    destinations: Dict[int, int] = {}
    for index in relocated:
        dest = _primary_asn_of(snap_to, index)
        destinations[dest] = destinations.get(dest, 0) + 1

    arrivals = after - before
    inflow_new = 0
    inflow_relocated = 0
    inflow_new_names: List = []
    sources: Dict[int, int] = {}
    population = collector.world.population
    for index in arrivals:
        name = population.record(index).name
        if whois.is_newly_registered(name, date_from):
            inflow_new += 1
            inflow_new_names.append(name)
        else:
            inflow_relocated += 1
            source = _primary_asn_of(snap_from, index)
            sources[source] = sources.get(source, 0) + 1

    return MovementReport(
        asn,
        date_from,
        date_to,
        original=len(before),
        remained=len(remained),
        relocated=len(relocated),
        expired=len(expired),
        inflow_relocated=inflow_relocated,
        inflow_new=inflow_new,
        relocation_destinations=destinations,
        inflow_sources=sources,
        inflow_new_names=sorted(inflow_new_names),
    )

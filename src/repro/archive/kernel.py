"""Columnar query kernel: archive sweeps without per-record objects.

The experiment layer's day reducers consume
:class:`~repro.measurement.fast.DailySnapshot` objects, which for an
archive-backed context means scattering shard columns over the
population and rebuilding a world for its epoch label tables — work
that dominates a warm query even though the shard bytes are hot in
memory.  This module is the fast path around that:

* :func:`summarize_snapshot` aggregates one snapshot into a
  :class:`~repro.archive.summary.DaySummary` using the *same*
  vectorised label/bincount operations the day reducers run (the code
  below mirrors :class:`~repro.core.reducers.FullSweepReducer` and
  :class:`~repro.core.reducers.RecentWindowReducer` line for line), so
  a summary replayed later is bit-identical to re-reducing the day.
  The archive builder calls this once per day and serialises the result
  into the shard's summary block.
* :class:`ArchiveQueryKernel` answers the coarse longitudinal queries
  (Figures 1-5, headline, every ``series``) straight from those stored
  summaries: one partial file read per day, no per-domain columns, no
  world construction.

The record-object path remains the oracle: the equivalence suite in
``tests/archive/test_kernel.py`` proves kernel results bit-identical to
record-path results for every figure the kernel serves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.reducers import (
    FullSweepDayRecord,
    RecentDayRecord,
    _composition_counts,
)
from ..core.labels import (
    snapshot_hosting_geo_labels,
    snapshot_ns_geo_labels,
    snapshot_ns_tld_labels,
)
from ..errors import ArchiveError
from ..measurement.fast import DailySnapshot
from ..timeline import DateLike
from .summary import DaySummary

__all__ = [
    "summarize_snapshot",
    "full_record_from_summary",
    "recent_record_from_summary",
    "ArchiveQueryKernel",
]


def summarize_snapshot(
    snapshot: DailySnapshot, chunk_domains: Optional[int] = None
) -> DaySummary:
    """Aggregate one day into its :class:`DaySummary`.

    Every count is produced by the exact operation the corresponding
    reducer runs — same label gathers, same ``bincount``/matmul over
    the same columns — which is what makes summary replay bit-identical
    to record-path reduction.

    With ``chunk_domains`` set, the measured set is processed in
    position chunks of at most that many domains and the per-chunk
    integer counts are merged additively — every aggregate here
    (composition triples, plan bincounts, subset label counts) is a sum
    over a partition of ``measured``, so the chunked result is equal by
    construction, not by rounding.  This is the bounded-memory path
    the streaming shard builder rides: the temporaries scale with the
    chunk, not the day.
    """
    measured = snapshot.measured
    count = len(measured)
    dns_labels = snapshot.epoch.dns_labels
    hosting_labels = snapshot.epoch.hosting_labels
    world = snapshot.world
    sanctioned = np.asarray(world.sanctioned_indices, dtype=np.int64)

    if chunk_domains is not None and chunk_domains < 1:
        raise ArchiveError(f"chunk_domains must be >= 1: {chunk_domains}")
    step = max(
        1, count if not chunk_domains else min(int(chunk_domains), count)
    )

    ns_triple = np.zeros(3, dtype=np.int64)
    host_triple = np.zeros(3, dtype=np.int64)
    tld_triple = np.zeros(3, dtype=np.int64)
    sanctioned_triple = np.zeros(3, dtype=np.int64)
    plan_counts = np.zeros(dns_labels.tld_membership.shape[0], dtype=np.int64)
    host_plan_counts = np.zeros(len(hosting_labels.asn_sets), dtype=np.int64)

    for lo in range(0, max(count, 1), step):
        chunk = measured[lo:lo + step]
        ns_triple += _composition_counts(
            snapshot_ns_geo_labels(snapshot, chunk)
        )
        host_triple += _composition_counts(
            snapshot_hosting_geo_labels(snapshot, chunk)
        )
        tld_triple += _composition_counts(
            snapshot_ns_tld_labels(snapshot, chunk)
        )
        # FullSweepReducer.reduce_day: per-TLD NS dependency counts
        # (the matmul against the membership matrix happens once, on
        # the merged plan histogram below).
        plan_counts += np.bincount(
            snapshot.dns_ids[chunk], minlength=len(plan_counts)
        )
        host_plan_counts += np.bincount(
            snapshot.hosting_ids[chunk], minlength=len(host_plan_counts)
        )
        # RecentWindowReducer's sanctioned subset: np.isin over a
        # chunk partition concatenates to np.isin over the whole
        # measured set, order preserved.
        subset = chunk[np.isin(chunk, sanctioned)]
        sanctioned_triple += _composition_counts(
            snapshot_ns_geo_labels(snapshot, subset)
        )

    per_tld = plan_counts @ dns_labels.tld_membership
    tld_counts = {
        tld: int(per_tld[col])
        for col, tld in enumerate(dns_labels.tld_names)
        if per_tld[col] > 0
    }

    # RecentWindowReducer.reduce_day generalised: instead of counting
    # only a caller-supplied tracked-ASN list, count every ASN any
    # hosting plan touches.  For a plan-membership matrix M this is the
    # same ``plan_counts @ M`` with one column per known ASN, so any
    # tracked subset projects out of it exactly.
    asn_counts: Dict[int, int] = {}
    for plan_id, plan_asns in enumerate(hosting_labels.asn_sets):
        plan_count = int(host_plan_counts[plan_id])
        if plan_count:
            for asn in plan_asns:
                asn_counts[asn] = asn_counts.get(asn, 0) + plan_count

    listed = len(world.sanctions.domains_listed_as_of(snapshot.date))

    return DaySummary(
        snapshot.date,
        snapshot.epoch.start_day,
        int(count),
        tuple(int(v) for v in ns_triple),
        tuple(int(v) for v in host_triple),
        tuple(int(v) for v in tld_triple),
        tld_counts,
        asn_counts,
        tuple(int(v) for v in sanctioned_triple),
        listed,
    )


def full_record_from_summary(summary: DaySummary) -> FullSweepDayRecord:
    """The :class:`FullSweepDayRecord` a summary replays to.

    ``label_cache_hit`` is set (the summary *is* the cache) and is
    excluded from record equality, exactly like parallel-sweep workers.
    """
    return FullSweepDayRecord(
        summary.date,
        summary.ns,
        summary.hosting,
        summary.tld,
        summary.measured_count,
        dict(summary.tld_counts),
        label_cache_hit=True,
    )


def recent_record_from_summary(
    summary: DaySummary, asns: Sequence[int]
) -> RecentDayRecord:
    """The :class:`RecentDayRecord` a summary replays to for ``asns``.

    The summary's ASN histogram covers every ASN any hosting plan
    touches, so projecting the tracked list out of it (absent means
    zero) matches the reducer's membership-matrix product exactly.
    """
    return RecentDayRecord(
        summary.date,
        summary.measured_count,
        {int(asn): summary.asn_counts.get(int(asn), 0) for asn in asns},
        summary.sanctioned,
        summary.listed_count,
        label_cache_hit=True,
    )


class ArchiveQueryKernel:
    """Serves day aggregates for one archive-backed collector.

    Stored summaries are read directly (partial file reads through the
    archive's summary cache).
    """

    def __init__(self, collector) -> None:
        self._collector = collector

    def sweep_summaries(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> List[DaySummary]:
        """Summaries for every ``step`` days in ``[start, end]``."""
        if step < 1:
            raise ArchiveError(f"sweep step must be >= 1 day: {step}")
        return self._collector.archive.load_summaries(start, end, step)

    def full_sweep_records(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> List[FullSweepDayRecord]:
        """The five-year sweep's day records (Figures 1-3, headline)."""
        return [
            full_record_from_summary(summary)
            for summary in self.sweep_summaries(start, end, step)
        ]

    def recent_records(
        self, asns: Sequence[int], start: DateLike, end: DateLike, step: int = 1
    ) -> List[RecentDayRecord]:
        """The conflict-window day records (Figures 4 and 5)."""
        return [
            recent_record_from_summary(summary, asns)
            for summary in self.sweep_summaries(start, end, step)
        ]

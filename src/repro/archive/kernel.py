"""The one per-day reduction: a snapshot becomes a :class:`DaySummary`.

Every longitudinal series in the repo — Figures 1-5, the headline
stats, every ``series`` query — is a fold over per-day
:class:`~repro.archive.summary.DaySummary` objects, and
:func:`summarize_snapshot` is the only code that produces them:

* the archive builder calls it once per day and serialises the result
  into the shard's summary block;
* a live (world-backed) context runs it through the parallel sweep
  engine as :class:`SummaryReducer`;
* :class:`ArchiveQueryKernel` serves an archive-backed context's sweeps
  straight from the stored summaries: one partial file read per day,
  no per-domain columns, no world construction.

Both paths then fold through the same merges in
:mod:`repro.core.reducers`, so an aggregation bug has one place to be
fixed.  ``tests/integration/test_summary_reference.py`` recomputes every
summary field in plain Python, per domain, as the independent oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.labels import (
    LABEL_FULL,
    LABEL_NON,
    LABEL_PART,
    snapshot_hosting_geo_labels,
    snapshot_ns_geo_labels,
    snapshot_ns_tld_labels,
)
from ..measurement.fast import DailySnapshot
from ..timeline import DateLike
from .stream import CHUNK_DOMAINS
from .summary import DaySummary

__all__ = [
    "summarize_snapshot",
    "SummaryReducer",
    "ArchiveQueryKernel",
]


def _composition_counts(labels: np.ndarray) -> Tuple[int, int, int]:
    return (
        int((labels == LABEL_FULL).sum()),
        int((labels == LABEL_PART).sum()),
        int((labels == LABEL_NON).sum()),
    )


def summarize_snapshot(snapshot: DailySnapshot) -> DaySummary:
    """Aggregate one day into its :class:`DaySummary`.

    The counts are vectorised gathers over the epoch's label tables:
    full/part/non label counts for the composition triples, and plan
    ``bincount`` histograms projected onto TLD and ASN membership.

    The measured set is processed in position chunks of
    :data:`~repro.archive.stream.CHUNK_DOMAINS`, the shard writer's
    chunk, and the per-chunk integer counts are merged additively —
    every aggregate here (composition triples, plan bincounts, subset
    label counts) is a sum over a partition of ``measured``, so the
    result does not depend on the chunk size.  The temporaries scale
    with the chunk, not the day.
    """
    measured = snapshot.measured
    count = len(measured)
    dns_labels = snapshot.epoch.dns_labels
    hosting_labels = snapshot.epoch.hosting_labels
    world = snapshot.world
    sanctioned = np.asarray(world.sanctioned_indices, dtype=np.int64)

    ns_triple = np.zeros(3, dtype=np.int64)
    host_triple = np.zeros(3, dtype=np.int64)
    tld_triple = np.zeros(3, dtype=np.int64)
    sanctioned_triple = np.zeros(3, dtype=np.int64)
    plan_counts = np.zeros(dns_labels.tld_membership.shape[0], dtype=np.int64)
    host_plan_counts = np.zeros(len(hosting_labels.asn_sets), dtype=np.int64)

    for lo in range(0, max(count, 1), CHUNK_DOMAINS):
        chunk = measured[lo:lo + CHUNK_DOMAINS]
        ns_triple += _composition_counts(
            snapshot_ns_geo_labels(snapshot, chunk)
        )
        host_triple += _composition_counts(
            snapshot_hosting_geo_labels(snapshot, chunk)
        )
        tld_triple += _composition_counts(
            snapshot_ns_tld_labels(snapshot, chunk)
        )
        # Per-TLD NS dependency counts: the matmul against the
        # membership matrix happens once, on the merged plan histogram
        # below.
        plan_counts += np.bincount(
            snapshot.dns_ids[chunk], minlength=len(plan_counts)
        )
        host_plan_counts += np.bincount(
            snapshot.hosting_ids[chunk], minlength=len(host_plan_counts)
        )
        # The sanctioned subset: np.isin over a chunk partition
        # concatenates to np.isin over the whole measured set, order
        # preserved.
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

    # Count every ASN any hosting plan touches, not a caller-supplied
    # tracked list: for a plan-membership matrix M this is
    # ``plan_counts @ M`` with one column per known ASN, so any tracked
    # subset projects out of it exactly.
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


class SummaryReducer:
    """:func:`summarize_snapshot` as a sweep-engine day reducer.

    Stateless, so it pickles to worker processes as-is; the live sweeps
    run it through :class:`~repro.measurement.sweep.SweepEngine`.
    """

    def reduce_day(self, snapshot: DailySnapshot) -> DaySummary:
        return summarize_snapshot(snapshot)


class ArchiveQueryKernel:
    """Serves stored day summaries for one archive-backed collector.

    Summaries are read directly (partial file reads through the
    archive's summary cache).  The two sweeps read the same summaries;
    each keeps its own method so per-layer traces can time them.
    """

    def __init__(self, collector) -> None:
        self._collector = collector

    def full_sweep_records(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> List[DaySummary]:
        """The five-year sweep's summaries (Figures 1-3, headline)."""
        return self._collector.archive.load_summaries(start, end, step)

    def recent_records(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> List[DaySummary]:
        """The conflict-window sweep's summaries (Figures 4 and 5)."""
        return self._collector.archive.load_summaries(start, end, step)

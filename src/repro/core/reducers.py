"""The longitudinal series bundles and their merges over day summaries.

Every measurement day, live or archived, is reduced to one
:class:`~repro.archive.summary.DaySummary` by
:func:`~repro.archive.kernel.summarize_snapshot` — the only code that
turns a snapshot into series counts; the series classes themselves
only store points.  This module folds an ordered summary list into the
series the experiments, examples and benches consume:
:func:`merge_full_sweep` for the five-year sweep (Figures 1-3, headline
stats) and :func:`merge_recent_window` for the conflict window
(Figures 4 and 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from .composition import CompositionSeries
from .tlddep import TldSharePoint, TldShareSeries
from .topasn import AsnSharePoint, AsnShareSeries

if TYPE_CHECKING:
    from ..archive.summary import DaySummary

__all__ = [
    "SweepSeries",
    "RecentWindowSeries",
    "merge_full_sweep",
    "merge_recent_window",
]


class SweepSeries:
    """Every longitudinal series the five-year sweep produces."""

    def __init__(self) -> None:
        self.ns_composition = CompositionSeries("NS country composition")
        self.hosting_composition = CompositionSeries("Hosting country composition")
        self.tld_composition = CompositionSeries("NS TLD dependency")
        self.tld_shares = TldShareSeries()


class RecentWindowSeries:
    """The merged conflict-window series bundle."""

    def __init__(
        self,
        asn_shares: AsnShareSeries,
        sanctioned_composition: CompositionSeries,
        listed_counts: List[int],
    ) -> None:
        self.asn_shares = asn_shares
        self.sanctioned_composition = sanctioned_composition
        self.listed_counts = listed_counts


def merge_full_sweep(summaries: Sequence["DaySummary"]) -> SweepSeries:
    """Fold chronological day summaries into the five-year series bundle.

    ``tld_counts`` is copied, so the series never aliases a summary's
    own dict.
    """
    series = SweepSeries()
    for summary in summaries:
        series.ns_composition.add_counts(summary.date, *summary.ns)
        series.hosting_composition.add_counts(summary.date, *summary.hosting)
        series.tld_composition.add_counts(summary.date, *summary.tld)
        series.tld_shares.add(
            TldSharePoint(
                summary.date, summary.measured_count, dict(summary.tld_counts)
            )
        )
    return series


def merge_recent_window(
    asns: Sequence[int], summaries: Sequence["DaySummary"]
) -> RecentWindowSeries:
    """Fold chronological day summaries into the Figure 4/5 series.

    A summary counts every ASN any hosting plan touches, so the tracked
    ``asns`` project out of ``asn_counts`` exactly (absent means zero).
    """
    asns = [int(asn) for asn in asns]
    asn_series = AsnShareSeries(asns)
    sanctioned_series = CompositionSeries("Sanctioned NS composition")
    listed_counts: List[int] = []
    for summary in summaries:
        asn_series.add(
            AsnSharePoint(
                summary.date,
                summary.measured_count,
                {asn: summary.asn_counts.get(asn, 0) for asn in asns},
            )
        )
        sanctioned_series.add_counts(summary.date, *summary.sanctioned)
        listed_counts.append(summary.listed_count)
    return RecentWindowSeries(asn_series, sanctioned_series, listed_counts)

"""Core analysis: the paper's measurement pipeline.

Everything here consumes measurements (snapshots, CT monitor output,
scan datasets) and produces the series, tables, and reports behind the
paper's figures, tables, and prose claims.  The longitudinal series
(Figures 1-5) hold no per-day reduction of their own:
:mod:`repro.core.reducers` merges them from the day summaries that
:func:`repro.archive.summarize_snapshot` produces, the one per-day
reduction in the repo.
"""

from .composition import CompositionPoint, CompositionSeries
from .concentration import ConcentrationReport, analyze_market, concentration_ratio, hhi
from .countrydist import CountrySharePoint, CountryShareSeries, collect_country_shares
from .issuance import (
    IssuanceTimeline,
    compare_issuance_windows,
    PhaseIssuance,
    daily_issuance_average,
    issuance_by_phase,
    issuance_timelines,
    top_issuers_table,
)
from .labels import (
    LABEL_FULL,
    LABEL_NON,
    LABEL_PART,
    classify_flags,
    classify_hosting_geo,
    classify_ns_geo,
    classify_ns_tld,
    snapshot_hosting_geo_labels,
    snapshot_ns_geo_labels,
    snapshot_ns_tld_labels,
)
from .movement import MovementReport, analyze_movement
from .reducers import RecentWindowSeries, SweepSeries
from .revocation import IssuerRevocation, RevocationTable, analyze_revocations
from .summary import HeadlineStats, compute_headline_stats
from .tlddep import TldSharePoint, TldShareSeries
from .topasn import AsnSharePoint, AsnShareSeries, asn_members
from .trustedca import TrustedCaReport, analyze_trusted_ca

__all__ = [
    "CompositionPoint",
    "CompositionSeries",
    "ConcentrationReport",
    "analyze_market",
    "concentration_ratio",
    "hhi",
    "CountrySharePoint",
    "CountryShareSeries",
    "collect_country_shares",
    "compare_issuance_windows",
    "IssuanceTimeline",
    "PhaseIssuance",
    "daily_issuance_average",
    "issuance_by_phase",
    "issuance_timelines",
    "top_issuers_table",
    "LABEL_FULL",
    "LABEL_NON",
    "LABEL_PART",
    "classify_flags",
    "classify_hosting_geo",
    "classify_ns_geo",
    "classify_ns_tld",
    "snapshot_hosting_geo_labels",
    "snapshot_ns_geo_labels",
    "snapshot_ns_tld_labels",
    "MovementReport",
    "analyze_movement",
    "RecentWindowSeries",
    "SweepSeries",
    "IssuerRevocation",
    "RevocationTable",
    "analyze_revocations",
    "HeadlineStats",
    "compute_headline_stats",
    "TldSharePoint",
    "TldShareSeries",
    "AsnSharePoint",
    "AsnShareSeries",
    "asn_members",
    "TrustedCaReport",
    "analyze_trusted_ca",
]

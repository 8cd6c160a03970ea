"""Certificate issuance analyses (Table 1 and Figure 8).

Works from a CT monitor's matched entries — certificates whose CN or SAN
falls under ``.ru``/``.рф`` — grouped by Issuer Organization.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional, Sequence, Tuple

from ..ctlog.monitor import CtMonitor
from ..errors import AnalysisError
from ..timeline import (
    CERT_WINDOW_END,
    CERT_WINDOW_START,
    Phase,
    phase_of,
)

__all__ = [
    "PhaseIssuance",
    "issuance_by_phase",
    "top_issuers_table",
    "daily_issuance_average",
    "IssuanceTimeline",
    "issuance_timelines",
]


class PhaseIssuance:
    """Per-issuer certificate counts within one paper phase."""

    def __init__(self, phase: Phase, counts: Dict[str, int]) -> None:
        self.phase = phase
        self.counts = counts

    @property
    def total(self) -> int:
        """All certificates in the phase."""
        return sum(self.counts.values())

    def share(self, issuer: str) -> float:
        """Issuer's percentage of phase issuance."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(issuer, 0) / self.total

    def top(self, k: int = 3) -> List[Tuple[str, int]]:
        """The ``k`` largest issuers (count-descending)."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def other_than(self, issuers: Sequence[str]) -> int:
        """Combined count of every issuer not listed ("Other CAs")."""
        named = set(issuers)
        return sum(
            count for issuer, count in self.counts.items() if issuer not in named
        )


def issuance_by_phase(
    monitor: CtMonitor,
    window_start: _dt.date = CERT_WINDOW_START,
    window_end: _dt.date = CERT_WINDOW_END,
) -> Dict[Phase, PhaseIssuance]:
    """Group matched CT entries into the paper's three phases."""
    counts: Dict[Phase, Dict[str, int]] = {phase: {} for phase in Phase}
    for entry in monitor.matched_entries():
        date = entry.timestamp
        if date < window_start or date > window_end:
            continue
        phase = phase_of(date)
        org = entry.certificate.issuer.organization
        counts[phase][org] = counts[phase].get(org, 0) + 1
    return {phase: PhaseIssuance(phase, per) for phase, per in counts.items()}


def top_issuers_table(
    phases: Dict[Phase, PhaseIssuance], k: int = 3
) -> Dict[Phase, List[Tuple[str, int, float]]]:
    """Table 1: per phase, the top-k issuers plus an "Other CAs" row."""
    table: Dict[Phase, List[Tuple[str, int, float]]] = {}
    for phase, issuance in phases.items():
        rows: List[Tuple[str, int, float]] = []
        top = issuance.top(k)
        for issuer, count in top:
            rows.append((issuer, count, issuance.share(issuer)))
        other = issuance.other_than([issuer for issuer, _ in top])
        other_share = 100.0 * other / issuance.total if issuance.total else 0.0
        rows.append(("Other CAs", other, other_share))
        table[phase] = rows
    return table


def daily_issuance_average(
    phases: Dict[Phase, PhaseIssuance],
    window_start: _dt.date = CERT_WINDOW_START,
    window_end: _dt.date = CERT_WINDOW_END,
    conflict_start: Optional[_dt.date] = None,
    sanctions_effective: Optional[_dt.date] = None,
) -> Dict[Phase, float]:
    """Average certificates per day in each phase (Section 4 headline)."""
    from ..timeline import CONFLICT_START, SANCTIONS_EFFECTIVE

    conflict = conflict_start or CONFLICT_START
    sanctions = sanctions_effective or SANCTIONS_EFFECTIVE
    lengths = {
        Phase.PRE_CONFLICT: (conflict - window_start).days,
        Phase.PRE_SANCTIONS: (sanctions - conflict).days + 1,
        Phase.POST_SANCTIONS: (window_end - sanctions).days,
    }
    averages: Dict[Phase, float] = {}
    for phase, issuance in phases.items():
        days = max(lengths.get(phase, 1), 1)
        averages[phase] = issuance.total / days
    return averages


class IssuanceTimeline:
    """Figure 8: one issuer's active-issuance days."""

    def __init__(self, issuer: str, daily_counts: Dict[_dt.date, int]) -> None:
        self.issuer = issuer
        self.daily_counts = daily_counts

    @property
    def total(self) -> int:
        """All certificates in the window."""
        return sum(self.daily_counts.values())

    def issued_on(self, date: _dt.date) -> bool:
        """True when the issuer produced >= 1 certificate that day."""
        return date in self.daily_counts

    def active_day_share(self, start: _dt.date, end: _dt.date) -> float:
        """Fraction of days in [start, end] with >= 1 certificate.

        Distinguishes *sustained* issuance from the isolated brand-CN
        "leakage" dots the paper calls out in Figure 8.
        """
        total_days = (end - start).days + 1
        if total_days <= 0:
            return 0.0
        active = sum(1 for day in self.daily_counts if start <= day <= end)
        return active / total_days


def compare_issuance_windows(
    monitor: CtMonitor,
    window_a: Tuple[_dt.date, _dt.date],
    window_b: Tuple[_dt.date, _dt.date],
) -> Dict[str, Tuple[float, float]]:
    """Per-issuer share-of-issuance in two windows: {org: (share_a, share_b)}.

    Used for the paper's footnote-7 claim: OFAC's General License 25
    (April 22, 2022) produced *no clear change* in issuance behaviour —
    i.e. the two windows around it should look alike.
    """
    def shares(window: Tuple[_dt.date, _dt.date]) -> Dict[str, float]:
        counts: Dict[str, int] = {}
        for entry in monitor.matched_entries():
            if window[0] <= entry.timestamp <= window[1]:
                org = entry.certificate.issuer.organization
                counts[org] = counts.get(org, 0) + 1
        total = sum(counts.values())
        if total == 0:
            return {}
        return {org: 100.0 * count / total for org, count in counts.items()}

    shares_a = shares(window_a)
    shares_b = shares(window_b)
    result: Dict[str, Tuple[float, float]] = {}
    for org in sorted(set(shares_a) | set(shares_b)):
        result[org] = (shares_a.get(org, 0.0), shares_b.get(org, 0.0))
    return result


def issuance_timelines(
    monitor: CtMonitor,
    window_start: _dt.date = CERT_WINDOW_START,
    window_end: _dt.date = CERT_WINDOW_END,
    top_k: int = 10,
) -> List[IssuanceTimeline]:
    """Per-issuer daily timelines for the ``top_k`` issuers by volume."""
    if top_k < 1:
        raise AnalysisError(f"top_k must be positive: {top_k}")
    matrix = monitor.daily_issuer_matrix()
    windowed: Dict[str, Dict[_dt.date, int]] = {}
    for issuer, per_day in matrix.items():
        kept = {
            date: count
            for date, count in per_day.items()
            if window_start <= date <= window_end
        }
        if kept:
            windowed[issuer] = kept
    ranked = sorted(
        windowed.items(), key=lambda kv: (-sum(kv[1].values()), kv[0])
    )
    return [IssuanceTimeline(issuer, per_day) for issuer, per_day in ranked[:top_k]]

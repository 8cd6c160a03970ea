"""A CT monitor: tails logs and indexes entries matching a predicate.

This is the simulation's Censys: it watches one or more CT logs for
certificates whose CN/SAN match the studied TLDs and exposes the matched
set to the analysis layer.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Dict, List, Optional, Sequence

from ..pki.certificate import Certificate
from ..pki.store import CertificateStore
from .log import CtLog, LogEntry

__all__ = ["CtMonitor"]


class CtMonitor:
    """Tails CT logs, retaining entries that satisfy a match predicate."""

    def __init__(
        self,
        logs: Sequence[CtLog],
        matcher: Optional[Callable[[Certificate], bool]] = None,
    ) -> None:
        self._logs = list(logs)
        self._matcher = matcher or (lambda _cert: True)
        self._cursor: Dict[str, int] = {log.log_id: 0 for log in self._logs}
        self._matched: List[LogEntry] = []
        self._store = CertificateStore()

    @property
    def store(self) -> CertificateStore:
        """The matched certificates as a queryable store."""
        return self._store

    def poll(self) -> int:
        """Fetch new entries from every log; returns the match count."""
        matched = 0
        for log in self._logs:
            start = self._cursor[log.log_id]
            size = len(log)
            if size <= start:
                continue
            for entry in log.get_entries(start, size - 1):
                if self._matcher(entry.certificate):
                    self._matched.append(entry)
                    self._store.add(entry.certificate)
                    matched += 1
            self._cursor[log.log_id] = size
        return matched

    def matched_entries(self) -> List[LogEntry]:
        """Every matched entry seen so far (log order per log)."""
        return list(self._matched)

    def daily_issuer_matrix(self) -> Dict[str, Dict[_dt.date, int]]:
        """issuer organization -> {date: entries that day}.

        The raw material for the paper's Figure 8 dot timelines.
        """
        matrix: Dict[str, Dict[_dt.date, int]] = {}
        for entry in self._matched:
            org = entry.certificate.issuer.organization
            per_day = matrix.setdefault(org, {})
            per_day[entry.timestamp] = per_day.get(entry.timestamp, 0) + 1
        return matrix

"""Study timeline: dates, day indexing, and the paper's three phases.

The paper studies 1803 days, 2017-06-18 through 2022-05-25, and divides the
months around the invasion into three phases:

* **pre-conflict** — before 2022-02-24 (the invasion),
* **pre-sanctions** — 2022-02-24 up to (and including) 2022-03-26,
* **post-sanctions** — after 2022-03-26.

Dates are handled as :class:`datetime.date` at API boundaries and as integer
*day indices* (days since :data:`STUDY_START`) internally, which keeps the
columnar simulation fast and unambiguous.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Iterator, Union

from .errors import TimelineError

__all__ = [
    "STUDY_START",
    "STUDY_END",
    "STUDY_DAYS",
    "CONFLICT_START",
    "SANCTIONS_EFFECTIVE",
    "RECENT_WINDOW_START",
    "CERT_WINDOW_START",
    "CERT_WINDOW_END",
    "REVOCATION_VALIDITY_CUTOFF",
    "Phase",
    "DateLike",
    "as_date",
    "day_index",
    "from_day_index",
    "iter_days",
    "phase_of",
    "DayClock",
]

#: First day of the OpenINTEL sweep used by the paper.
STUDY_START = _dt.date(2017, 6, 18)
#: Last day of the OpenINTEL sweep used by the paper.
STUDY_END = _dt.date(2022, 5, 25)
#: Total number of days in the study period (the paper reports 1803).
STUDY_DAYS = (STUDY_END - STUDY_START).days + 1

#: Russia invades Ukraine; start of the paper's "pre-sanctions" phase.
CONFLICT_START = _dt.date(2022, 2, 24)
#: Paper's boundary between the pre-sanctions and post-sanctions phases.
SANCTIONS_EFFECTIVE = _dt.date(2022, 3, 26)

#: First day of the daily conflict-window sweep (Figures 4 and 5, the
#: per-country extension); an archive covers every day from here to
#: :data:`STUDY_END`.
RECENT_WINDOW_START = _dt.date(2022, 2, 22)

#: Certificate issuance analysis window (Section 4.1).
CERT_WINDOW_START = _dt.date(2022, 1, 1)
CERT_WINDOW_END = _dt.date(2022, 5, 15)

#: Revocations are tallied for certificates whose validity ends after this.
REVOCATION_VALIDITY_CUTOFF = _dt.date(2022, 2, 25)

DateLike = Union[_dt.date, str, int]


class Phase(enum.Enum):
    """The paper's three analysis phases around the invasion."""

    PRE_CONFLICT = "pre-conflict"
    PRE_SANCTIONS = "pre-sanctions"
    POST_SANCTIONS = "post-sanctions"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def as_date(value: DateLike) -> _dt.date:
    """Coerce a date-like value to :class:`datetime.date`.

    Accepts a ``date``, an ISO ``YYYY-MM-DD`` string, or an integer day
    index relative to :data:`STUDY_START`.
    """
    if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
        return value
    if isinstance(value, str):
        try:
            return _dt.date.fromisoformat(value)
        except ValueError as exc:
            raise TimelineError(f"not an ISO date: {value!r}") from exc
    if isinstance(value, int):
        return from_day_index(value)
    raise TimelineError(f"cannot interpret {value!r} as a date")


def day_index(value: DateLike) -> int:
    """Days since :data:`STUDY_START` (0 for the first study day).

    Negative values and values past the study end are allowed — the
    simulation occasionally needs dates slightly outside the measurement
    window (e.g. certificate validity starting before the window).
    """
    return (as_date(value) - STUDY_START).days


def from_day_index(index: int) -> _dt.date:
    """Inverse of :func:`day_index`."""
    return STUDY_START + _dt.timedelta(days=int(index))


def iter_days(
    start: DateLike = STUDY_START,
    end: DateLike = STUDY_END,
    step: int = 1,
) -> Iterator[_dt.date]:
    """Yield dates from ``start`` to ``end`` inclusive, every ``step`` days."""
    if step < 1:
        raise TimelineError(f"step must be >= 1, got {step}")
    lo, hi = as_date(start), as_date(end)
    if lo > hi:
        raise TimelineError(f"empty range: {lo} > {hi}")
    current = lo
    while current <= hi:
        yield current
        current += _dt.timedelta(days=step)


def phase_of(value: DateLike) -> Phase:
    """Return the paper phase a date belongs to."""
    date = as_date(value)
    if date < CONFLICT_START:
        return Phase.PRE_CONFLICT
    if date <= SANCTIONS_EFFECTIVE:
        return Phase.PRE_SANCTIONS
    return Phase.POST_SANCTIONS


class DayClock:
    """A mutable simulation clock measured in study-day indices.

    Components that need "now" (TTL caches, certificate validity checks)
    share a single clock object so a simulation can advance all of them in
    lockstep.
    """

    def __init__(self, start: DateLike = STUDY_START) -> None:
        self._day = day_index(start)

    @property
    def day(self) -> int:
        """Current day index."""
        return self._day

    @property
    def date(self) -> _dt.date:
        """Current date."""
        return from_day_index(self._day)

    def advance_to(self, value: DateLike) -> None:
        """Move the clock forward to ``value``; moving backwards is an error."""
        target = day_index(value)
        if target < self._day:
            raise TimelineError(
                f"clock cannot move backwards: {self.date} -> {from_day_index(target)}"
            )
        self._day = target

    def tick(self, days: int = 1) -> None:
        """Advance the clock by ``days`` (must be non-negative)."""
        if days < 0:
            raise TimelineError(f"cannot tick backwards ({days} days)")
        self._day += days

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DayClock({self.date.isoformat()})"

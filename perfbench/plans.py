"""The seed-pure request plan of the ``query-scan`` workload.

Arrivals follow a Poisson process drawn by
:func:`repro.loadgen.build_plan`, with its gaps set to evenly spaced
exponential quantiles (see :func:`poisson_arrivals`).  The schedule is
drawn from :data:`SCHEDULE_SEED` and the keys from the workload seed;
the program under test only ever sees the resulting requests.

``query-scan`` offers a key space far larger than any cache: 80%
``/v1/records`` pages over the 93-day conflict window (four TLD
spellings, non-empty offsets) and 20% ``ns_composition`` windows.
Proportions are exact in every block of five requests, so two seeds
differ in which keys, not in how much of each kind or when.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import List, Optional, Tuple

from repro.loadgen import build_plan
from repro.rng import derive_rng

__all__ = [
    "SCAN_FIRST_DAY",
    "SCAN_DAYS",
    "SCAN_TLDS",
    "SCHEDULE_SEED",
    "poisson_arrivals",
    "scan_paths",
    "scan_key_space",
    "warmup_paths",
]

#: The conflict window the ``build`` workload archives and scans read.
SCAN_FIRST_DAY = _dt.date(2022, 2, 22)
SCAN_DAYS = 93
#: TLD filters: A-label, percent-encoded Unicode ``рф``, punycode, none.
SCAN_TLDS: Tuple[Optional[str], ...] = ("ru", "%D1%80%D1%84", "xn--p1ai", None)
#: Page offsets are ``20 * k`` for k in [1, SCAN_PAGES]; the smallest
#: TLD (``.рф``, ~800 domains a day at 1:250) still fills every page.
SCAN_PAGES = 38
PAGE_LIMIT = 20
#: Seed of the request schedule: when each request is due and, for the
#: scan mix, which are records pages and which series windows.  It is
#: the same for every workload seed, which picks the keys: a cheap
#: series window that lands in a burst instead of a records page changes
#: how many requests queue, and the tail swung by 20% with the seed.
SCHEDULE_SEED = 20220224
#: ``ns_composition`` windows are drawn inside the study period.
_SERIES_FIRST = _dt.date(2017, 6, 18)
_SERIES_SPAN_DAYS = 1803


def _records_path(day: _dt.date, tld: Optional[str], page: int) -> str:
    query = f"offset={PAGE_LIMIT * page}&limit={PAGE_LIMIT}"
    if tld is not None:
        query = f"tld={tld}&{query}"
    return f"/v1/records/{day.isoformat()}?{query}"


def _series_path(start: _dt.date, end: _dt.date) -> str:
    return (
        f"/v1/series/ns_composition?start={start.isoformat()}"
        f"&end={end.isoformat()}"
    )


def poisson_arrivals(seed: int, rate: float, duration: float) -> List[float]:
    """Exactly ``round(rate * duration)`` Poisson arrivals in ``[0, duration)``.

    The gaps come in the order of :func:`repro.loadgen.build_plan`'s
    exponential draws, but each takes the value of the exponential
    quantile at its rank, and the whole plan is rescaled so the next
    arrival lands on ``duration``.  Every seed thus offers the same
    count and the same set of gaps: seeds differ in which requests come
    close together, not in how many do, so the queueing a tail measures
    does not swing with the seed.
    """
    count = max(1, round(rate * duration))
    span = duration
    while True:
        arrivals = build_plan(seed, rate, span, mix=[("arrival", "/")]).arrivals
        if len(arrivals) > count:
            break
        span *= 2.0
    drawn = [later - earlier for earlier, later
             in zip([0.0] + arrivals[:count], arrivals[: count + 1])]
    gaps = [0.0] * len(drawn)
    for rank, index in enumerate(sorted(range(len(drawn)), key=drawn.__getitem__)):
        gaps[index] = -math.log(1.0 - (rank + 0.5) / len(drawn))
    scale = duration / sum(gaps)
    plan, at = [], 0.0
    for gap in gaps[:count]:
        at += gap * scale
        plan.append(at)
    return plan


def scan_paths(seed: int, count: int) -> List[str]:
    """``count`` keys of the cache-missing scan mix, in offer order.

    Records pages walk a seed-shuffled cycle of the 93 days, so a day
    recurs only after 92 others — far past the 16-shard LRU — and every
    page is a shard miss; TLD spellings rotate in seed-shuffled blocks
    of four.  A plan longer than the cycle walks it again and still
    repeats no key.
    """
    # Four records pages and one series window in every block of five,
    # so any slice of the sequence costs about the same; the pattern is
    # the schedule's (see SCHEDULE_SEED), the keys are the seed's.
    pattern = derive_rng(SCHEDULE_SEED, "perfbench", "scan-kinds")
    kinds = [
        bool(kind) for _ in range(0, count, 5)
        for kind in pattern.permutation([True, True, True, True, False])
    ][:count]
    rng = derive_rng(seed, "perfbench", "scan")
    days = rng.permutation(SCAN_DAYS)
    paths: List[str] = []
    used = set()
    position = 0
    tlds: List[Optional[str]] = []
    for is_records in kinds:
        if not is_records:
            start = _SERIES_FIRST + _dt.timedelta(
                days=int(rng.integers(_SERIES_SPAN_DAYS - 60))
            )
            span = 30 + int(rng.integers(_SERIES_SPAN_DAYS // 2))
            end = min(start + _dt.timedelta(days=span),
                      _SERIES_FIRST + _dt.timedelta(days=_SERIES_SPAN_DAYS - 1))
            paths.append(_series_path(start, end))
            continue
        if not tlds:
            tlds = [SCAN_TLDS[int(i)] for i in rng.permutation(len(SCAN_TLDS))]
        day = SCAN_FIRST_DAY + _dt.timedelta(
            days=int(days[position % SCAN_DAYS])
        )
        tld = tlds.pop()
        path = _records_path(day, tld, 1 + int(rng.integers(SCAN_PAGES)))
        # A later pass over the day cycle never repeats a key.
        while path in used:
            path = _records_path(day, tld, 1 + int(rng.integers(SCAN_PAGES)))
        used.add(path)
        paths.append(path)
        position += 1
    return paths


def scan_key_space() -> int:
    """Distinct records keys the scan mix draws from."""
    return SCAN_DAYS * len(SCAN_TLDS) * SCAN_PAGES


def warmup_paths() -> List[str]:
    """Requests that fill the caches and finish lazy set-up.

    Records pages need the companion world (they materialise per-domain
    state) and the conflict-window sweep; series windows need the
    full-period sweep.
    """
    return [
        _records_path(SCAN_FIRST_DAY, "ru", 1),
        _series_path(_SERIES_FIRST, _dt.date(2022, 5, 25)),
    ]

"""Deterministic digest over worlds.

The scenario engine's contract is byte-level: the same spec builds the
same world in any process, and the baseline spec builds archives
byte-identical to the pre-scenario-engine path.  :func:`world_digest`
reduces the first claim to a comparable hex string by hashing canonical
shard encodings of probe-day snapshots (the exact bytes an archive
build would persist); the second is checked with
:func:`repro.archive.archive_digest` over the on-disk manifest and
shards.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from typing import Optional, Sequence

from ..archive.kernel import summarize_snapshot
from ..archive.stream import DayStream, encode_stream
from ..errors import ScenarioError
from ..measurement.fast import FastCollector
from ..timeline import DateLike, as_date

__all__ = ["PROBE_DATES", "world_digest"]

#: Default probe days: study start, conflict eve, mid-conflict, study end.
PROBE_DATES = (
    _dt.date(2017, 6, 18),
    _dt.date(2022, 2, 22),
    _dt.date(2022, 3, 15),
    _dt.date(2022, 5, 25),
)


def world_digest(
    world,
    dates: Sequence[DateLike] = PROBE_DATES,
    collector: Optional[FastCollector] = None,
) -> str:
    """SHA-256 over canonical shard encodings of ``world`` on ``dates``.

    Two worlds share a digest iff an archive built from them would share
    shard bytes for the probe days: the current (v3) encoding, columns
    plus the pre-aggregated :class:`~repro.archive.summary.DaySummary`
    — which is where scenario deltas that only move the sanctions
    timeline (``listed_count``) show up.
    """
    if not dates:
        raise ScenarioError("world_digest needs at least one probe date")
    collector = collector or FastCollector(world)
    hasher = hashlib.sha256()
    for date in dates:
        snapshot = collector.collect(as_date(date))
        stream = DayStream.from_snapshot(snapshot, summarize_snapshot(snapshot))
        blob, _crc = encode_stream(stream)
        hasher.update(blob)
    return hasher.hexdigest()

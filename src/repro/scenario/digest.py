"""Deterministic digests over worlds and archives.

The scenario engine's contract is byte-level: the same spec builds the
same world in any process, and the baseline spec builds archives
byte-identical to the pre-scenario-engine path.  These helpers reduce
both claims to comparable hex strings — a world digest hashes canonical
shard encodings of probe-day snapshots (the exact bytes an archive
build would persist), and an archive digest hashes the on-disk manifest
and every shard file.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import os
from typing import Optional, Sequence

from ..archive.kernel import summarize_snapshot
from ..archive.manifest import MANIFEST_NAME
from ..archive.stream import DayStream, encode_stream
from ..errors import ArchiveError, ScenarioError
from ..measurement.fast import FastCollector
from ..timeline import DateLike, as_date

__all__ = ["PROBE_DATES", "world_digest", "archive_digest"]

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


def archive_digest(path: str) -> str:
    """SHA-256 over an archive directory's manifest and shard bytes.

    Files are hashed in sorted-name order with name framing, so two
    archives share a digest iff they are file-for-file byte-identical.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise ArchiveError(f"no archive manifest at {manifest_path}")
    hasher = hashlib.sha256()
    names = sorted(
        name for name in os.listdir(path)
        if name == MANIFEST_NAME or name.endswith(".shard")
    )
    for name in names:
        hasher.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(path, name), "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()

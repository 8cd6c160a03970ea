"""Per-day pre-aggregated shard summaries (shard format v3).

A :class:`DaySummary` is everything the coarse longitudinal queries
(Figures 1-5, the headline stats, every ``series`` query) need from one
measurement day, aggregated once at build time:

* the three full/part/non composition triples (NS geography, hosting
  geography, NS TLD dependency);
* the per-TLD domain counts behind the TLD-share series;
* the per-ASN hosting counts over **every** ASN any hosting plan
  touches (a superset of any tracked-provider list, so Figure 4 style
  queries never depend on which ASNs the reader happens to track);
* the sanctioned-subset NS composition and the sanctions-list size.

Summaries are serialised with the shard codec primitives into their own
independently-compressed block ahead of the domain-level columns, so a
reader can answer a coarse query from the first few hundred bytes of a
shard file without decompressing — or even reading — the per-domain
data.  The encoding is canonical (sorted keys, fixed field order): the
same day always serialises to the same bytes, preserving the archive's
shard-byte determinism.

The numbers themselves come from
:func:`repro.archive.kernel.summarize_snapshot`, the one per-day
reduction: live sweeps compute the same summaries on the fly, and both
paths fold them through the merges in :mod:`repro.core.reducers`.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, Tuple

from ..errors import ArchiveError
from .codec import (
    read_string,
    read_svarint,
    read_uvarint,
    write_string,
    write_svarint,
    write_uvarint,
)

__all__ = ["DaySummary", "encode_summary", "decode_summary"]


class DaySummary:
    """One day's pre-aggregated analysis counts.

    ``ns``/``hosting``/``tld``/``sanctioned`` are ``(full, part, non)``
    composition triples; ``tld_counts`` and ``asn_counts`` store only
    non-zero entries (absent means zero).
    """

    __slots__ = (
        "date",
        "epoch_start_day",
        "measured_count",
        "ns",
        "hosting",
        "tld",
        "tld_counts",
        "asn_counts",
        "sanctioned",
        "listed_count",
    )

    def __init__(
        self,
        date: _dt.date,
        epoch_start_day: int,
        measured_count: int,
        ns: Tuple[int, int, int],
        hosting: Tuple[int, int, int],
        tld: Tuple[int, int, int],
        tld_counts: Dict[str, int],
        asn_counts: Dict[int, int],
        sanctioned: Tuple[int, int, int],
        listed_count: int,
    ) -> None:
        self.date = date
        self.epoch_start_day = int(epoch_start_day)
        self.measured_count = int(measured_count)
        self.ns = tuple(int(v) for v in ns)
        self.hosting = tuple(int(v) for v in hosting)
        self.tld = tuple(int(v) for v in tld)
        self.tld_counts = {str(k): int(v) for k, v in tld_counts.items()}
        self.asn_counts = {int(k): int(v) for k, v in asn_counts.items()}
        self.sanctioned = tuple(int(v) for v in sanctioned)
        self.listed_count = int(listed_count)
        for name, triple in (
            ("ns", self.ns), ("hosting", self.hosting),
            ("tld", self.tld), ("sanctioned", self.sanctioned),
        ):
            if len(triple) != 3:
                raise ArchiveError(
                    f"summary triple {name!r} has {len(triple)} fields, not 3"
                )

    def key(self) -> Tuple:
        """Comparable content tuple (used by round-trip tests)."""
        return (
            self.date,
            self.epoch_start_day,
            self.measured_count,
            self.ns,
            self.hosting,
            self.tld,
            tuple(sorted(self.tld_counts.items())),
            tuple(sorted(self.asn_counts.items())),
            self.sanctioned,
            self.listed_count,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaySummary):
            return NotImplemented
        return self.key() == other.key()

    def __repr__(self) -> str:
        return f"DaySummary({self.date}, {self.measured_count} measured)"


def encode_summary(summary: DaySummary) -> bytes:
    """Serialise one summary to its canonical (uncompressed) bytes."""
    buffer = bytearray()
    write_svarint(buffer, summary.epoch_start_day)
    write_uvarint(buffer, summary.measured_count)
    for triple in (summary.ns, summary.hosting, summary.tld):
        for value in triple:
            write_uvarint(buffer, value)
    write_uvarint(buffer, len(summary.tld_counts))
    for tld in sorted(summary.tld_counts):
        write_string(buffer, tld)
        write_uvarint(buffer, summary.tld_counts[tld])
    write_uvarint(buffer, len(summary.asn_counts))
    previous = 0
    for asn in sorted(summary.asn_counts):
        # ASNs are sorted, so deltas stay small; counts are raw uvarints.
        write_svarint(buffer, asn - previous)
        write_uvarint(buffer, summary.asn_counts[asn])
        previous = asn
    for value in summary.sanctioned:
        write_uvarint(buffer, value)
    write_uvarint(buffer, summary.listed_count)
    return bytes(buffer)


def decode_summary(date: _dt.date, payload: bytes) -> DaySummary:
    """Decode one summary block (the inverse of :func:`encode_summary`)."""
    view = memoryview(payload)
    offset = 0
    epoch_start_day, offset = read_svarint(view, offset)
    measured_count, offset = read_uvarint(view, offset)
    triples = []
    for _ in range(3):
        full, offset = read_uvarint(view, offset)
        part, offset = read_uvarint(view, offset)
        non, offset = read_uvarint(view, offset)
        triples.append((full, part, non))
    tld_count, offset = read_uvarint(view, offset)
    tld_counts: Dict[str, int] = {}
    for _ in range(tld_count):
        tld, offset = read_string(view, offset)
        count, offset = read_uvarint(view, offset)
        tld_counts[tld] = count
    asn_count, offset = read_uvarint(view, offset)
    asn_counts: Dict[int, int] = {}
    previous = 0
    for _ in range(asn_count):
        delta, offset = read_svarint(view, offset)
        previous += delta
        count, offset = read_uvarint(view, offset)
        asn_counts[previous] = count
    full, offset = read_uvarint(view, offset)
    part, offset = read_uvarint(view, offset)
    non, offset = read_uvarint(view, offset)
    listed_count, offset = read_uvarint(view, offset)
    if offset != len(view):
        raise ArchiveError(
            f"{len(view) - offset} trailing bytes in shard summary block"
        )
    return DaySummary(
        date,
        epoch_start_day,
        measured_count,
        triples[0],
        triples[1],
        triples[2],
        tld_counts,
        asn_counts,
        (full, part, non),
        listed_count,
    )

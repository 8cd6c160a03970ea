"""The binary day-shard format: one file per measured day.

A shard is everything the pipeline knows about one measurement day,
stored columnarly:

* the measured domain indices (fixed-width int32, decoded vectorised;
  outage days store the subsampled set, so replaying a shard replays
  the outage exactly);
* per-measured-domain DNS and hosting plan ids (the fast path's raw
  material — scattering them back over the population reconstructs a
  :class:`~repro.measurement.fast.DailySnapshot` bit-for-bit);
* a per-shard NS name pool plus a per-DNS-plan table of NS names and
  addresses (fleet hostnames repeat for thousands of domains, so the
  pool collapses the dominant string column);
* per-domain A-label names and sorted apex address runs — with the plan
  table these materialise every
  :class:`~repro.measurement.records.DomainMeasurement` of the day
  without touching a world.

Format version 3 stores two independently zlib-compressed blocks behind
a fixed header: a small **summary block** (the day's pre-aggregated
analysis counts, :mod:`repro.archive.summary`) followed by the columnar
payload.  The summary block carries its own CRC32 in the header, so a
coarse query can read and verify the first few hundred bytes of a shard
without ever touching — or decompressing — the per-domain columns.  The
header CRC32 still covers the header itself (with the CRC field zeroed)
followed by *both* uncompressed blocks, so a bit flip anywhere in the
file — including the date ordinal or record count in the header — is
caught before any value is trusted.  Version 3 is the only format
read or written; any other version is refused with an
:class:`~repro.errors.ArchiveError` naming it, which the archive's
self-healing and ``repro archive repair`` turn into a rebuild.

This module owns the format definition, :class:`DayShardRecord` and
the readers.  A :class:`DayShardRecord` is only ever a decoded shard
payload: :func:`read_shard` decodes a file, and
:meth:`DayShardRecord.from_snapshot` decodes the payload the writer
would store for a live day.  The one writer is the streaming encoder in
:mod:`repro.archive.stream` (encoded per-domain caches, compression on
one helper thread); :func:`encode_shard` re-encodes a record through
it.  Writes are build-order independent and byte-deterministic: the
same day always serialises to the same bytes, which is what makes
interrupted-then-resumed archive builds byte-identical to
uninterrupted ones.
"""

from __future__ import annotations

import datetime as _dt
import os
import struct
import zlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..dns.name import DomainName
from ..errors import ArchiveCorruptError, ArchiveError, ArchiveStaleError
# Not called here.  Kept bound because perfbench's build trace looks
# the name up on this module when it wraps the write path.
from ..ioutil import atomic_write_bytes
from ..measurement.records import DomainMeasurement
from .codec import (
    read_delta_run,
    read_int32_ndarray,
    read_string,
    read_svarint,
    read_uvarint,
)
from .summary import DaySummary, decode_summary

__all__ = [
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "DayShardRecord",
    "ShardProbe",
    "encode_shard",
    "read_shard",
    "read_summary",
    "probe_shard",
]

SHARD_MAGIC = b"REPROARC"
SHARD_VERSION = 3

#: Common prefix of every shard version: ``magic, version, flags`` —
#: enough to check the format before trusting anything else.
_PREFIX = struct.Struct("<8sHH")

#: ``magic, version, flags, date ordinal, record count, crc32,
#: uncompressed payload length, compressed summary length, summary
#: crc32`` — the summary block is located and verified from the header
#: alone.
_HEADER_V3 = struct.Struct("<8sHHIIIQII")

#: Fixed compression level: determinism requires one canonical encoding.
_ZLIB_LEVEL = 6


class DayShardRecord:
    """One day's measurements in shard (column) form, decoded from a payload.

    ``measured``/``dns_ids``/``hosting_ids`` are parallel
    per-measured-domain columns.  The domain names, the apex runs and
    ``dns_plan_ns`` — each DNS plan id appearing in ``dns_ids`` mapped to
    its ``(ns_names, ns_addresses)`` tuple for the day's infrastructure
    epoch — stay in the undecoded payload tail until a record is first
    materialised.

    The three numeric columns are numpy arrays held at their final
    analysis dtypes — ``measured`` as int64 (it is used for fancy
    indexing over the population), the plan-id columns as int32 — so
    snapshot reconstruction and the columnar kernels consume them
    without any per-query conversion or copy.  ``summary`` carries the
    day's pre-aggregated :class:`~repro.archive.summary.DaySummary`:
    always set on a record read from disk, and required before one is
    re-encoded.

    Records are built only by :func:`_decode_payload` (behind
    :func:`read_shard` and :meth:`from_snapshot`), so a record and the
    bytes it came from cannot disagree.
    """

    __slots__ = (
        "date",
        "epoch_start_day",
        "population_size",
        "measured",
        "dns_ids",
        "hosting_ids",
        "summary",
        "_dns_plan_ns",
        "_tail",
        "_view",
        "_domain_offsets",
        "_apex_offsets",
    )

    # ------------------------------------------------------------------
    # Lazily-indexed columns
    # ------------------------------------------------------------------
    #
    # Reducer sweeps only ever read the three numeric columns above; the
    # NS plan table, domain names, and apex runs are needed solely to
    # materialise DomainMeasurement records, and a records page needs
    # only a handful of them.  A record therefore keeps the undecoded
    # payload tail and, on first access, indexes it once: the plan
    # table is parsed, and the byte offset of every position's domain
    # string and apex run is recorded.  Each record then decodes just
    # its own string and run.

    def _index(self) -> None:
        tail = self._tail
        if tail is None:
            # Another query thread indexed this cached record meanwhile.
            return
        payload, offset = tail
        view = memoryview(payload)
        count = len(self.measured)

        pool_size, offset = read_uvarint(view, offset)
        pool: List[str] = []
        for _ in range(pool_size):
            name, offset = read_string(view, offset)
            pool.append(name)

        plan_count, offset = read_uvarint(view, offset)
        dns_plan_ns: Dict[int, Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}
        for _ in range(plan_count):
            plan_id, offset = read_uvarint(view, offset)
            name_count, offset = read_uvarint(view, offset)
            names = []
            for _ in range(name_count):
                pool_id, offset = read_uvarint(view, offset)
                names.append(pool[pool_id])
            addresses, offset = read_delta_run(view, offset)
            dns_plan_ns[plan_id] = (tuple(names), tuple(addresses))
        planned = np.isin(self.dns_ids, np.fromiter(dns_plan_ns, np.int64))
        if not planned.all():
            missing = sorted(set(self.dns_ids[~planned].tolist()))
            raise ArchiveError(
                f"dns plans missing from the shard table: {missing}"
            )

        domain_offsets, offset = _index_strings(view, offset, count)
        apex_offsets, offset = _index_runs(view, offset, count)
        if offset != len(view):
            raise ArchiveError(
                f"{len(view) - offset} trailing bytes in shard payload"
            )
        self._dns_plan_ns = dns_plan_ns
        self._view = view
        self._domain_offsets = domain_offsets
        self._apex_offsets = apex_offsets
        self._tail = None

    def _domain_at(self, position: int) -> str:
        """The A-label name at ``position``."""
        if self._tail is not None:
            self._index()
        return read_string(self._view, int(self._domain_offsets[position]))[0]

    def _apex_at(self, position: int) -> Tuple[int, ...]:
        """The sorted apex address run at ``position``."""
        if self._tail is not None:
            self._index()
        run, _ = read_delta_run(self._view, int(self._apex_offsets[position]))
        return tuple(run)

    @property
    def dns_plan_ns(self) -> Dict[int, Tuple[Tuple[str, ...], Tuple[int, ...]]]:
        """Per-DNS-plan ``(ns_names, ns_addresses)`` for the day's epoch."""
        if self._tail is not None:
            self._index()
        return self._dns_plan_ns

    def tld_mask(self, tld: str) -> np.ndarray:
        """Which positions' names are under ``tld`` (a lower-case A-label).

        Read from the name index alone, so a TLD filter needs no world:
        a name ends where the next one's length prefix starts, and the
        last one where the apex runs start.  The suffix ``"." + tld`` is
        tested byte by byte from the end, each byte over the candidates
        the previous bytes left.  A name no longer than the suffix is
        never a candidate, so the test stays inside its own name.
        """
        if self._tail is not None:
            self._index()
        suffix = b"." + tld.encode("utf-8")
        starts = self._domain_offsets
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1:] = self._apex_offsets[:1]
        data = np.frombuffer(self._view, dtype=np.uint8)
        candidates = np.flatnonzero(ends - starts > len(suffix))
        for back, byte in enumerate(reversed(suffix), 1):
            candidates = candidates[data[ends[candidates] - back] == byte]
        mask = np.zeros(len(starts), dtype=bool)
        mask[candidates] = True
        return mask

    # ------------------------------------------------------------------
    # Construction from a live snapshot
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        snapshot,
        names=None,
        apexes=None,
        plan_cache: Optional[Dict[Tuple[int, int], Tuple[Tuple[str, ...], Tuple[int, ...]]]] = None,
    ) -> "DayShardRecord":
        """Columnarise one :class:`DailySnapshot`; ``summary`` stays unset.

        Decodes the uncompressed payload of :meth:`DayStream.from_snapshot
        <repro.archive.stream.DayStream.from_snapshot>` — the bytes a
        shard of the day would hold — so the record and the shard cannot
        disagree.  The encoded name and apex columns and the plan cache
        (see there) are forwarded.
        """
        from .stream import DayStream, _stream_pieces

        stream = DayStream.from_snapshot(snapshot, None, names, apexes, plan_cache)
        payload = b"".join(_stream_pieces(stream))
        return _decode_payload(stream.date, len(stream), payload)

    # ------------------------------------------------------------------
    # Record materialisation
    # ------------------------------------------------------------------

    def measurement_at(self, position: int) -> DomainMeasurement:
        """The :class:`DomainMeasurement` of the ``position``-th column entry."""
        names, addresses = self.dns_plan_ns[int(self.dns_ids[position])]
        return DomainMeasurement(
            self.date,
            DomainName.parse(self._domain_at(position)),
            names,
            addresses,
            self._apex_at(position),
            domain_index=int(self.measured[position]),
        )

    def measurement_for(self, domain_index: int) -> DomainMeasurement:
        """The record of one measured domain (by population index)."""
        position = int(np.searchsorted(self.measured, domain_index))
        if (
            position == len(self.measured)
            or self.measured[position] != domain_index
        ):
            raise ArchiveError(
                f"domain {domain_index} was not measured on {self.date}"
            )
        return self.measurement_at(position)

    def __repr__(self) -> str:
        return f"DayShardRecord({self.date}, {len(self.measured)} measured)"


def _ascending(measured: np.ndarray) -> np.ndarray:
    """``measured`` itself; refuses a column that is not strictly ascending.

    Record lookup by population index is a binary search over it.
    """
    if measured.size > 1 and not (measured[1:] > measured[:-1]).all():
        raise ArchiveError("measured column is not strictly ascending")
    return measured


#: The lowest byte an A-label can hold (``-``).  A byte below it that
#: starts a string can only be a one-byte length prefix.
_MIN_LABEL_BYTE = 0x2D


def _chain_walk(
    nodes: np.ndarray,
    successors: np.ndarray,
    count: int,
    limit: int,
    step: Callable[[int], int],
    truncated: str,
) -> Tuple[np.ndarray, int]:
    """The first ``count`` nodes of the chain that starts at node 0.

    A region of ``limit`` units (bytes or varints) is a chain: each node
    says how far its successor is.  ``nodes`` are the ascending int32
    candidate units whose successor is cheap to compute, ``successors``
    theirs; ``step(node)`` computes the successor of any other node
    sequentially.  A candidate whose successor is the next candidate
    links to it, so from a known chain node each linked stretch is taken
    as one slice.  Every node reached is a true chain node by induction
    from node 0, whatever the candidates are: they decide only how many
    steps the walk takes.

    Returns ``(int32 nodes, node after the last)``; a node at or past
    ``limit`` raises :class:`ArchiveError` with ``truncated``.
    """
    last = len(nodes) - 1
    breaks = np.flatnonzero(successors[:-1] != nodes[1:]).astype(np.int32)
    stretch_ends = np.append(breaks, np.int32(max(last, 0)))
    pieces: List[np.ndarray] = []
    taken = 0
    node = 0
    while taken < count:
        if node >= limit:
            raise ArchiveError(truncated)
        index = int(np.searchsorted(nodes, node))
        if index <= last and nodes[index] == node:
            end = int(stretch_ends[np.searchsorted(stretch_ends, index)])
            end = min(end, index + count - taken - 1)
            pieces.append(nodes[index : end + 1])
            taken += end + 1 - index
            node = int(successors[end])
        else:
            pieces.append(np.array([node], dtype=np.int32))
            taken += 1
            node = step(node)
    return np.concatenate([nodes[:0], *pieces]), node


def _index_strings(
    view: memoryview, offset: int, count: int
) -> Tuple[np.ndarray, int]:
    """Offsets of ``count`` length-prefixed strings starting at ``offset``.

    Returns ``(offsets, next_offset)``.  Candidate nodes are the bytes
    below :data:`_MIN_LABEL_BYTE`; a longer name or a multi-byte length
    prefix takes one sequential step.  The whole region is checked to
    be UTF-8 with one C-level decode: every length prefix ends in a
    byte below 0x80, which can never sit inside a multi-byte sequence,
    so the region decodes exactly when every string does.  The leading
    bytes of the rare multi-byte prefixes are zeroed first, since they
    could complete a string's dangling sequence.
    """
    region = np.frombuffer(view, dtype=np.uint8, offset=offset)
    nodes = np.flatnonzero(region < _MIN_LABEL_BYTE).astype(np.int32)
    successors = nodes + 1 + region[nodes]
    wide: List[int] = []

    def step(node: int) -> int:
        length, after = read_uvarint(view, offset + node)
        wide.extend(range(offset + node, after - 1))
        return after - offset + length

    truncated = "truncated string in shard payload"
    starts, end = _chain_walk(
        nodes, successors, count, len(region), step, truncated
    )
    end += offset
    if end > len(view):
        raise ArchiveError(truncated)
    text = view[offset:end]
    if wide:
        text = bytearray(text)
        for position in wide:
            text[position - offset] = 0
    try:
        str(text, "utf-8")
    except UnicodeDecodeError:
        raise ArchiveError("invalid UTF-8 in shard payload") from None
    return starts.astype(np.int64) + offset, end


def _index_runs(
    view: memoryview, offset: int, count: int
) -> Tuple[np.ndarray, int]:
    """Offsets of ``count`` delta runs starting at ``offset``.

    Returns ``(offsets, next_offset)``.  Varint boundaries are found
    vectorised (every varint ends in its only byte below 0x80), and the
    runs are a chain over varints: a run's count varint is followed by
    that many deltas.  Candidate nodes are the one-byte varints; a
    count of 128 or more takes one sequential step.
    """
    region = np.frombuffer(view, dtype=np.uint8, offset=offset)
    stops = np.flatnonzero(region < 0x80).astype(np.int32)
    starts = np.empty_like(stops)
    starts[:1] = 0
    starts[1:] = stops[:-1] + 1
    nodes = np.flatnonzero(starts == stops).astype(np.int32)
    successors = nodes + 1 + region[stops[nodes]]

    def step(node: int) -> int:
        length, _ = read_uvarint(view, offset + int(starts[node]))
        return node + 1 + length

    truncated = "truncated varint in shard payload"
    runs, after = _chain_walk(
        nodes, successors, count, len(stops), step, truncated
    )
    if after > len(stops):
        raise ArchiveError(truncated)
    end = offset + (int(stops[after - 1]) + 1 if after else 0)
    return offset + starts[runs].astype(np.int64), end


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------

def _decode_payload(date: _dt.date, count: int, payload: bytes) -> DayShardRecord:
    """Decode the structural columns; string/apex columns stay lazy.

    The payload has already passed its CRC check, so the undecoded tail
    is known intact — :meth:`DayShardRecord._index` indexes it on first
    record materialisation.

    The three numeric columns decode vectorised and exactly once:
    ``measured`` widens to int64 (its final fancy-indexing dtype) in one
    ``astype``; the plan-id columns stay zero-copy read-only int32 views
    over the payload bytes, which the record keeps alive via ``_tail``.
    """
    view = memoryview(payload)
    offset = 0
    epoch_start_day, offset = read_svarint(view, offset)
    population_size, offset = read_uvarint(view, offset)
    measured32, offset = read_int32_ndarray(view, offset)
    if len(measured32) != count:
        raise ArchiveError(
            f"shard header claims {count} records, payload has {len(measured32)}"
        )
    dns_ids, offset = read_int32_ndarray(view, offset)
    hosting_ids, offset = read_int32_ndarray(view, offset)
    if len(dns_ids) != count or len(hosting_ids) != count:
        raise ArchiveError(
            f"shard id columns ({len(dns_ids)}/{len(hosting_ids)}) do not "
            f"match {count} records"
        )

    record = object.__new__(DayShardRecord)
    record.date = date
    record.epoch_start_day = epoch_start_day
    record.population_size = population_size
    record.measured = _ascending(measured32.astype(np.int64))
    record.dns_ids = dns_ids
    record.hosting_ids = hosting_ids
    record.summary = None
    record._dns_plan_ns = {}
    record._tail = (payload, offset)
    record._view = None
    record._domain_offsets = None
    record._apex_offsets = None
    return record


def _shard_crc_v3(
    flags: int,
    ordinal: int,
    count: int,
    payload_length: int,
    summary_blob_length: int,
    summary_crc: int,
    summary: bytes,
    payload: bytes,
) -> int:
    """CRC32 over the zeroed header, then the uncompressed summary,
    then the uncompressed columns — both blocks and every header field
    (the summary's own length and CRC included) are covered."""
    zeroed = _HEADER_V3.pack(
        SHARD_MAGIC, 3, flags, ordinal, count, 0,
        payload_length, summary_blob_length, summary_crc,
    )
    return zlib.crc32(payload, zlib.crc32(summary, zlib.crc32(zeroed)))


def _decompress_block(blob: bytes, path: str, what: str) -> bytes:
    """Inflate one exactly-delimited zlib stream; reject slack bytes."""
    decompressor = zlib.decompressobj()
    try:
        data = decompressor.decompress(blob)
        data += decompressor.flush()
    except zlib.error as exc:
        raise ArchiveCorruptError(
            f"shard {path} {what} failed to decompress: {exc}"
        ) from exc
    if not decompressor.eof or decompressor.unused_data:
        raise ArchiveCorruptError(
            f"shard {path} {what} has trailing or truncated compressed data"
        )
    return data


def encode_shard(record: DayShardRecord) -> Tuple[bytes, int]:
    """Serialise ``record`` to its canonical on-disk bytes.

    Returns ``(blob, crc32)``; the CRC covers the header (with its CRC
    field zeroed) plus every uncompressed block.  ``record.summary``
    must be populated.  Runs the streaming writer into memory.
    """
    from .stream import DayStream, encode_stream

    return encode_stream(DayStream.from_record(record))


def _check_header(path: str, head: bytes) -> None:
    """Check a shard's magic, version and header length.

    Any version but :data:`SHARD_VERSION` is refused by name.
    """
    if len(head) < _PREFIX.size:
        raise ArchiveCorruptError(f"shard {path} is shorter than its header")
    magic, version, _ = _PREFIX.unpack_from(head)
    if magic != SHARD_MAGIC:
        raise ArchiveCorruptError(f"shard {path} has bad magic {magic!r}")
    if version != SHARD_VERSION:
        raise ArchiveError(
            f"shard {path} has format version {version}, expected "
            f"{SHARD_VERSION} (rebuild it with 'repro archive repair')"
        )
    if len(head) < _HEADER_V3.size:
        raise ArchiveCorruptError(f"shard {path} is shorter than its header")


def _verify_shard_blob(
    path: str, blob: bytes, expected_crc: Optional[int]
) -> Tuple[_dt.date, int, int, bytes, bytes]:
    """Verify one in-memory shard blob end to end.

    Shared by :func:`read_shard` and :func:`probe_shard`: checks the
    magic, version, manifest CRC, summary CRC, and the whole-shard CRC
    over the decompressed blocks.  Returns
    ``(date, count, crc, summary_bytes, payload_bytes)``.
    """
    _check_header(path, blob)
    (magic, version, flags, ordinal, count, crc, payload_length,
     summary_blob_length, summary_crc) = _HEADER_V3.unpack_from(blob)
    if expected_crc is not None and crc != expected_crc:
        raise ArchiveStaleError(
            f"shard {path} crc {crc:#010x} does not match the manifest"
        )
    columns_start = _HEADER_V3.size + summary_blob_length
    if len(blob) < columns_start:
        raise ArchiveCorruptError(
            f"shard {path} is shorter than its summary block"
        )
    summary = _decompress_block(
        blob[_HEADER_V3.size:columns_start], path, "summary block"
    )
    if zlib.crc32(summary) != summary_crc:
        raise ArchiveCorruptError(
            f"shard {path} summary block is corrupt (crc mismatch)"
        )
    payload = _decompress_block(blob[columns_start:], path, "payload")
    if len(payload) != payload_length:
        raise ArchiveCorruptError(
            f"shard {path} payload length {len(payload)} != header {payload_length}"
        )
    if _shard_crc_v3(
        flags, ordinal, count, payload_length,
        summary_blob_length, summary_crc, summary, payload,
    ) != crc:
        raise ArchiveCorruptError(f"shard {path} is corrupt (crc mismatch)")
    return _dt.date.fromordinal(ordinal), count, crc, summary, payload


def read_shard(path: str, expected_crc: Optional[int] = None) -> DayShardRecord:
    """Load and verify one shard; raises :class:`ArchiveError` on damage.

    The failure is classified by subclass: damaged bytes raise
    :class:`ArchiveCorruptError`; a healthy shard that disagrees with
    the manifest's expected CRC raises :class:`ArchiveStaleError`.
    The record carries its decoded
    :class:`~repro.archive.summary.DaySummary` on ``record.summary``.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ArchiveCorruptError(f"cannot read shard {path}: {exc}") from exc
    date, count, _, summary, payload = _verify_shard_blob(
        path, blob, expected_crc
    )
    record = _decode_payload(date, count, payload)
    record.summary = decode_summary(date, summary)
    return record


class ShardProbe:
    """Verified identity of one on-disk shard, without column decode.

    What orphan adoption needs to trust a shard left behind by an
    interrupted build: the full-file CRC has passed, and the fields a
    manifest entry records (plus the population size, which guards
    against adopting a shard from a different-scale scenario) are
    decoded from the verified bytes.
    """

    __slots__ = (
        "date", "records", "crc32", "file_bytes",
        "population_size", "epoch_start_day",
    )

    def __init__(
        self,
        date: _dt.date,
        records: int,
        crc32: int,
        file_bytes: int,
        population_size: int,
        epoch_start_day: int,
    ) -> None:
        self.date = date
        self.records = records
        self.crc32 = crc32
        self.file_bytes = file_bytes
        self.population_size = population_size
        self.epoch_start_day = epoch_start_day

    def __repr__(self) -> str:
        return f"ShardProbe({self.date}, {self.records} records)"


def probe_shard(path: str) -> ShardProbe:
    """Fully verify one shard file and return its identity.

    Runs the same integrity checks as :func:`read_shard` (magic,
    version, summary CRC, whole-shard CRC over the decompressed
    blocks) but decodes only the tiny payload prefix — no column
    arrays, no string index.  Raises the same classified
    :class:`ArchiveError` subclasses on damage.
    """
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ArchiveCorruptError(f"cannot read shard {path}: {exc}") from exc
    date, count, crc, _, payload = _verify_shard_blob(path, blob, None)
    view = memoryview(payload)
    epoch_start_day, offset = read_svarint(view, 0)
    population_size, _ = read_uvarint(view, offset)
    return ShardProbe(date, count, crc, size, population_size, epoch_start_day)


def read_summary(
    path: str, expected_crc: Optional[int] = None
) -> Tuple[DaySummary, int]:
    """Read only a shard's pre-aggregated summary.

    Returns ``(summary, bytes_read)``.  This is the coarse-query fast
    path: it reads the fixed header plus the compressed summary block —
    a few hundred bytes — and never touches the per-domain columns.
    ``expected_crc`` is checked against the header's whole-shard CRC
    (the manifest value) so a stale or swapped file is refused before
    its summary is trusted; the summary bytes themselves are verified
    against the header's dedicated summary CRC.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER_V3.size)
            _check_header(path, head)
            (magic, version, flags, ordinal, count, crc, payload_length,
             summary_blob_length, summary_crc) = _HEADER_V3.unpack(head)
            if expected_crc is not None and crc != expected_crc:
                raise ArchiveStaleError(
                    f"shard {path} crc {crc:#010x} does not match the manifest"
                )
            summary_blob = handle.read(summary_blob_length)
    except OSError as exc:
        raise ArchiveCorruptError(f"cannot read shard {path}: {exc}") from exc
    if len(summary_blob) != summary_blob_length:
        raise ArchiveCorruptError(
            f"shard {path} is shorter than its summary block"
        )
    summary = _decompress_block(summary_blob, path, "summary block")
    if zlib.crc32(summary) != summary_crc:
        raise ArchiveCorruptError(
            f"shard {path} summary block is corrupt (crc mismatch)"
        )
    return (
        decode_summary(_dt.date.fromordinal(ordinal), summary),
        _HEADER_V3.size + summary_blob_length,
    )

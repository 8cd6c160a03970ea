"""The shard writer: every day is streamed to disk in bounded memory.

The paper sweeps the whole .ru/.рф zone — about 11.7M domains (§2 of
the source paper) — every day, so the archive writer never holds a
day's per-domain Python objects, its whole payload or its whole
compressed blob at once.  This module is the one encoder behind every
shard file:

* :class:`DayStream` presents one day's shard content *lazily* — the
  numeric columns and NS plan table up front (they are small and the
  payload prefix needs them), the domain and apex columns as
  position-addressed lookups that a writer pulls in ``[lo, hi)``
  chunks of :data:`CHUNK_DOMAINS`;
* :func:`write_shard_stream` feeds the prefix slices, then the domain
  chunks, then the apex chunks to one ``zlib.compressobj``, tracks the
  payload CRC as it goes, and — because the v3 header CRC folds the
  header in *first*, and the header stores the payload length that is
  only known at the end — finishes with
  :func:`~repro.archive.codec.crc32_combine` and patches the real
  header over its placeholder before the atomic rename.

:func:`repro.archive.shard.encode_shard` runs the same pipeline into an
in-memory buffer, so there is one encoding of the format.  The bytes do
not depend on the chunk size: chunk boundaries fall between codec
fields (a length-prefixed string or delta run is never split), and a
``compressobj`` fed any partition of the payload emits the same stream.
``tests/archive/test_streaming_equivalence.py`` checks that property,
and ``tests/archive/test_shard_golden.py`` pins the bytes themselves.
"""

from __future__ import annotations

import os
import time
import zlib
from typing import BinaryIO, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import ArchiveError, RecoveryError
from ..ioutil import backoff_seconds
from .codec import (
    crc32_combine,
    int32_bytes,
    write_delta_run,
    write_string,
    write_svarint,
    write_uvarint,
)
from .shard import _HEADER_V3, _ZLIB_LEVEL, SHARD_MAGIC, read_shard
from .summary import DaySummary, encode_summary

__all__ = ["CHUNK_DOMAINS", "DayStream", "write_shard_stream"]

#: Positions per streamed chunk: small enough that a chunk's Python
#: strings and encode buffer stay in the tens of megabytes at any scale.
#: :func:`~repro.archive.kernel.summarize_snapshot` aggregates in chunks
#: of the same size.
CHUNK_DOMAINS = 50_000


class DayStream:
    """One day's shard content, domain columns addressable by position.

    Carries the small per-day state up front (date, epoch, numeric
    columns, NS plan table, summary) and the ``domains``/``apex``
    columns as per-position callables, so a writer can pull any
    ``[lo, hi)`` chunk without the rest of the day existing as Python
    objects.  ``summary`` must be set before the day is written.
    """

    __slots__ = (
        "date",
        "epoch_start_day",
        "population_size",
        "measured",
        "dns_ids",
        "hosting_ids",
        "dns_plan_ns",
        "summary",
        "domain_at",
        "apex_at",
    )

    def __init__(
        self,
        date,
        epoch_start_day: int,
        population_size: int,
        measured,
        dns_ids,
        hosting_ids,
        dns_plan_ns: Dict[int, Tuple[Tuple[str, ...], Tuple[int, ...]]],
        summary: Optional[DaySummary],
        domain_at: Callable[[int], str],
        apex_at: Callable[[int], Tuple[int, ...]],
    ) -> None:
        self.date = date
        self.epoch_start_day = int(epoch_start_day)
        self.population_size = int(population_size)
        self.measured = np.asarray(measured, dtype=np.int64)
        self.dns_ids = np.asarray(dns_ids, dtype=np.int32)
        self.hosting_ids = np.asarray(hosting_ids, dtype=np.int32)
        self.dns_plan_ns = {
            int(plan_id): (tuple(names), tuple(int(a) for a in addresses))
            for plan_id, (names, addresses) in dns_plan_ns.items()
        }
        self.summary = summary
        self.domain_at = domain_at
        self.apex_at = apex_at

    def __len__(self) -> int:
        return len(self.measured)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        snapshot,
        summary: Optional[DaySummary],
        apex_cache: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = None,
        plan_cache: Optional[Dict[Tuple[int, int], Tuple[Tuple[str, ...], Tuple[int, ...]]]] = None,
    ) -> "DayStream":
        """Stream view of one live :class:`DailySnapshot`.

        Numeric columns and the NS plan table are built up front;
        domain names and apex tuples are per-position lookups against
        the world, so nothing per-domain outlives the chunk being
        encoded.  ``summary`` is the day's
        :func:`~repro.archive.kernel.summarize_snapshot`, computed by
        the caller.

        The caches are keyed by ``(domain_index, hosting_id)`` and
        ``(epoch_start_day, dns_id)``; assignments change rarely, so a
        builder that threads the same dicts through consecutive days
        materialises each plan/apex tuple once instead of once per day.
        """
        world = snapshot.world
        epoch = snapshot.epoch
        apex_cache = {} if apex_cache is None else apex_cache
        plan_cache = {} if plan_cache is None else plan_cache

        measured = np.asarray(snapshot.measured, dtype=np.int64)
        dns_ids = np.asarray(
            snapshot.dns_ids[snapshot.measured], dtype=np.int32
        )
        hosting_ids = np.asarray(
            snapshot.hosting_ids[snapshot.measured], dtype=np.int32
        )

        dns_plan_ns: Dict[int, Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}
        for plan_id in sorted(int(v) for v in np.unique(dns_ids)):
            key = (epoch.start_day, plan_id)
            entry = plan_cache.get(key)
            if entry is None:
                names = tuple(
                    str(hostname)
                    for hostname in world.dns_plans.plan(plan_id).ns_hostnames
                )
                entry = (names, tuple(epoch.ns_addresses[name] for name in names))
                plan_cache[key] = entry
            dns_plan_ns[plan_id] = entry

        def domain_at(position: int) -> str:
            return str(world.population.record(int(measured[position])).name)

        def apex_at(position: int) -> Tuple[int, ...]:
            key = (int(measured[position]), int(hosting_ids[position]))
            addresses = apex_cache.get(key)
            if addresses is None:
                addresses = tuple(
                    sorted(world.apex_addresses_for_plan(key[0], key[1]))
                )
                apex_cache[key] = addresses
            return addresses

        return cls(
            snapshot.date,
            epoch.start_day,
            len(snapshot.dns_ids),
            measured,
            dns_ids,
            hosting_ids,
            dns_plan_ns,
            summary,
            domain_at,
            apex_at,
        )

    @classmethod
    def from_record(cls, record) -> "DayStream":
        """Stream view of a materialised :class:`DayShardRecord`.

        The record must carry a summary (shard format v3).
        """
        if record.summary is None:
            raise ArchiveError(
                f"format v3 shard for {record.date} requires a DaySummary"
            )
        return cls(
            record.date,
            record.epoch_start_day,
            record.population_size,
            record.measured,
            record.dns_ids,
            record.hosting_ids,
            record.dns_plan_ns,
            record.summary,
            record.domains.__getitem__,
            record.apex.__getitem__,
        )

    # ------------------------------------------------------------------
    # Chunk encoders
    # ------------------------------------------------------------------

    def domains_chunk(self, lo: int, hi: int) -> bytes:
        """Encoded domain-name column for positions ``[lo, hi)``."""
        buffer = bytearray()
        domain_at = self.domain_at
        for position in range(lo, hi):
            write_string(buffer, domain_at(position))
        return bytes(buffer)

    def apex_chunk(self, lo: int, hi: int) -> bytes:
        """Encoded apex delta-run column for positions ``[lo, hi)``."""
        buffer = bytearray()
        apex_at = self.apex_at
        for position in range(lo, hi):
            write_delta_run(buffer, apex_at(position))
        return bytes(buffer)

    def __repr__(self) -> str:
        return f"DayStream({self.date}, {len(self.measured)} measured)"


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _plan_table(stream: DayStream) -> bytes:
    """The NS name pool and the per-plan table, as payload bytes."""
    buffer = bytearray()
    # NS name pool, first-seen over plans in id order (deterministic).
    pool: Dict[str, int] = {}
    plan_ids = sorted(stream.dns_plan_ns)
    for plan_id in plan_ids:
        for name in stream.dns_plan_ns[plan_id][0]:
            pool.setdefault(name, len(pool))
    write_uvarint(buffer, len(pool))
    for name in pool:
        write_string(buffer, name)

    write_uvarint(buffer, len(plan_ids))
    for plan_id in plan_ids:
        names, addresses = stream.dns_plan_ns[plan_id]
        write_uvarint(buffer, plan_id)
        write_uvarint(buffer, len(names))
        for name in names:
            write_uvarint(buffer, pool[name])
        write_delta_run(buffer, addresses)
    return bytes(buffer)


def _stream_pieces(stream: DayStream) -> Iterator[bytes]:
    """Yield the uncompressed payload pieces in format order.

    Epoch and population varints; the three int32 columns
    (``write_int32_array``'s layout: the length, then the values); the
    NS plan table; every domain string; every apex run.  Each
    per-position column goes out in chunks of :data:`CHUNK_DOMAINS`
    positions.  Piece boundaries are invisible to the compressor and
    the running CRC, so the chunk changes nothing but the transient
    footprint.
    """
    count = len(stream)
    chunks = [
        (lo, min(lo + CHUNK_DOMAINS, count))
        for lo in range(0, count, CHUNK_DOMAINS)
    ]
    head = bytearray()
    write_svarint(head, stream.epoch_start_day)
    write_uvarint(head, stream.population_size)
    yield bytes(head)
    # Structural columns are fixed-width so readers can decode them
    # vectorised; the string/apex columns stay varint-packed.
    for column in (stream.measured, stream.dns_ids, stream.hosting_ids):
        length = bytearray()
        write_uvarint(length, count)
        yield bytes(length)
        for lo, hi in chunks:
            yield int32_bytes(column[lo:hi])
    yield _plan_table(stream)
    for lo, hi in chunks:
        yield stream.domains_chunk(lo, hi)
    for lo, hi in chunks:
        yield stream.apex_chunk(lo, hi)


def _encode_into(
    handle: BinaryIO, stream: DayStream, faults=None, key: str = ""
) -> Tuple[int, int]:
    """Write ``stream``'s shard to the seekable ``handle``.

    Returns ``(file_bytes, crc32)``.

    The header goes down as a placeholder, then the compressed summary
    block, then the payload pieces through one compressor.  The header
    CRC covers zeroed-header || summary || payload; the first two are
    known only once the payload length is final, so their CRC is
    combined with the independently streamed payload CRC and the real
    header is written over the placeholder.

    With a fault plan, ``shard.write.bytes`` is rolled once under
    ``key`` (it may flip a bit of the summary block, which the caller's
    read-back verify catches) before the mid-write ``shard.write``
    check, the same order :func:`repro.ioutil.atomic_write_bytes` uses.
    """
    summary = encode_summary(stream.summary)
    summary_blob = zlib.compress(summary, _ZLIB_LEVEL)
    summary_crc = zlib.crc32(summary)
    ordinal = stream.date.toordinal()
    count = len(stream)

    def header(crc: int, payload_length: int) -> bytes:
        return _HEADER_V3.pack(
            SHARD_MAGIC, 3, 0, ordinal, count, crc,
            payload_length, len(summary_blob), summary_crc,
        )

    handle.write(header(0, 0))
    if faults is not None:
        handle.write(faults.corrupt_bytes("shard.write.bytes", key, summary_blob))
        # Mid-write fault point: header and summary are down, no column
        # bytes yet — a torn temp file.
        faults.check("shard.write", key)
    else:
        handle.write(summary_blob)
    payload_length = 0
    payload_crc = 0
    compressor = zlib.compressobj(_ZLIB_LEVEL)
    for piece in _stream_pieces(stream):
        payload_length += len(piece)
        payload_crc = zlib.crc32(piece, payload_crc)
        handle.write(compressor.compress(piece))
    handle.write(compressor.flush())
    file_bytes = handle.tell()
    crc = crc32_combine(
        zlib.crc32(summary, zlib.crc32(header(0, payload_length))),
        payload_crc,
        payload_length,
    )
    handle.seek(0)
    handle.write(header(crc, payload_length))
    return file_bytes, crc


def write_shard_stream(
    path: str,
    stream: DayStream,
    faults=None,
    retries: int = 6,
    backoff: float = 0.01,
) -> Tuple[int, int]:
    """Stream one day to ``path`` atomically; returns ``(file_bytes, crc32)``.

    Chunks are compressed as they are produced and written to a
    same-directory temp file, which ``os.replace`` renames over the
    final name, so an interrupted or faulted write never leaves a torn
    shard behind a name that passes existence checks.

    Fault discipline mirrors :func:`repro.ioutil.atomic_write_bytes`:
    the per-attempt key ``"<basename>#<attempt>"`` re-rolls every
    decision, ``shard.write.bytes`` is rolled once per attempt,
    ``shard.write`` fires mid-file, and when a plan is active the temp
    file is re-verified (a full CRC-checked read) before the rename.
    The read-back verify is the one step that is not bounded-memory; it
    only runs under fault injection.
    """
    name = os.path.basename(path)
    temp_path = f"{path}.tmp.{os.getpid()}"
    for attempt in range(retries + 1):
        key = f"{name}#{attempt}"
        try:
            try:
                with open(temp_path, "wb") as handle:
                    file_bytes, crc = _encode_into(handle, stream, faults, key)
                if faults is not None:
                    # Read-back verify: a corrupted block in the temp
                    # file fails its CRC here, while the final name
                    # still holds the previous good version.
                    verified = read_shard(temp_path, expected_crc=crc)
                    if verified.date != stream.date:
                        raise ArchiveError(
                            f"read-back verify failed for {path} "
                            f"(attempt {attempt})"
                        )
                os.replace(temp_path, path)
            finally:
                if os.path.exists(temp_path):
                    os.unlink(temp_path)
            return file_bytes, crc
        except (OSError, ArchiveError) as exc:
            if attempt >= retries:
                raise RecoveryError(
                    f"could not write {path} after {retries + 1} attempts: {exc}"
                ) from exc
            time.sleep(backoff_seconds(attempt, backoff))
    raise AssertionError("unreachable")  # pragma: no cover

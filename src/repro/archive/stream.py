"""The shard writer: every day is streamed to disk in bounded memory.

The paper sweeps the whole .ru/.рф zone — about 11.7M domains (§2 of
the source paper) — every day, so the archive writer never holds a
day's per-domain Python objects, its whole payload or its whole
compressed blob at once.  This module is the one encoder behind every
shard file:

* :class:`DayStream` presents one day's shard content *lazily* — the
  numeric columns and NS plan table up front (they are small and the
  payload prefix needs them), the domain and apex columns as lookups
  of a list of positions that a writer pulls in ``[lo, hi)`` chunks of
  :data:`CHUNK_DOMAINS`;
* a stream built by :meth:`DayStream.from_snapshot` may carry two
  *encoded caches* that outlive the day: each domain's
  ``write_string`` bytes keyed by its population index, and each
  ``write_delta_run`` apex run keyed by ``(domain_index, hosting_id)``.
  A name never changes and an apex run is a function of that pair, so
  a chunk is a ``b"".join`` of cache hits and only the misses reach
  the world, all of a chunk's in one call.  The caches grow with the
  distinct measured domains and ``(domain, plan)`` pairs a builder has
  seen;
* :func:`write_shard_stream` produces the prefix slices, then the
  domain chunks, then the apex chunks on the calling thread, folding
  the payload CRC as it goes, and hands each piece through a queue of
  :data:`QUEUE_DEPTH` to one compressor thread, which owns the
  ``zlib.compressobj`` and the file writes (zlib releases the GIL, so
  compression runs beside the encoding).  A write has two halves.  The
  *start* half runs on the calling thread and ends once the last piece
  is queued; the *finish* half joins the thread (re-raising any
  exception it raised), then — because the v3 header CRC folds the
  header in *first*, and the header stores the payload length that is
  only known at the end — combines the CRCs with
  :func:`~repro.archive.codec.crc32_combine`, patches the real header
  over its placeholder and renames the temp file into place.  By
  default the call runs both halves; with ``wait=False`` it returns a
  :class:`ShardWrite` between them, so a builder can collect and feed
  the next day while this one's compressor finishes.

:func:`encode_stream` runs the same pipeline into an in-memory buffer
(:func:`repro.archive.shard.encode_shard` and the scenario digests use
it), so there is one encoding of the format.  The bytes do not depend
on the chunk size: chunk boundaries fall between codec fields (a
length-prefixed string or delta run is never split), and a
``compressobj`` fed any partition of the payload emits the same stream.
``tests/archive/test_streaming_equivalence.py`` checks that property,
and ``tests/archive/test_shard_golden.py`` pins the bytes themselves.
"""

from __future__ import annotations

import io
import os
import queue
import threading
import time
import zlib
from typing import BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ArchiveError, RecoveryError
from ..ioutil import backoff_seconds
from .codec import (
    crc32_combine,
    int32_bytes,
    read_string,
    write_delta_run,
    write_string,
    write_svarint,
    write_uvarint,
)
from .shard import _HEADER_V3, _ZLIB_LEVEL, SHARD_MAGIC, read_shard
from .summary import DaySummary, encode_summary

__all__ = [
    "CHUNK_DOMAINS",
    "QUEUE_DEPTH",
    "DayStream",
    "ShardWrite",
    "encode_stream",
    "write_shard_stream",
]

#: Positions per streamed chunk: small enough that a chunk's Python
#: strings and encode buffer stay in the tens of megabytes at any scale.
#: :func:`~repro.archive.kernel.summarize_snapshot` aggregates in chunks
#: of the same size.
CHUNK_DOMAINS = 50_000

#: Encoded pieces the calling thread may run ahead of the compressor
#: thread.  Each is at most one chunk of one column, so this bounds the
#: writer's in-flight payload at a few chunks.
QUEUE_DEPTH = 4


class DayStream:
    """One day's shard content, domain columns addressable by position.

    Carries the small per-day state up front (date, epoch, numeric
    columns, NS plan table, summary) and the ``domains``/``apex``
    columns as callables from a list of positions to the list of their
    values (``domains_at`` gives A-label names, ``apexes_at`` sorted
    address tuples), so a writer can pull any ``[lo, hi)`` chunk, or
    only its cache misses, without the rest of the day existing as
    Python objects.  ``summary`` must be set before the day is written.
    Every ``dns_ids`` entry must name a plan in ``dns_plan_ns``; a
    stream that disagrees with its own plan table raises
    :class:`ArchiveError` here, before any byte of it is written.

    ``name_cache`` and ``apex_cache`` are the optional encoded caches
    (see :meth:`from_snapshot`); without them every position is encoded
    afresh.
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
        "domains_at",
        "apexes_at",
        "name_cache",
        "apex_cache",
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
        domains_at: Callable[[List[int]], List[str]],
        apexes_at: Callable[[List[int]], List[Tuple[int, ...]]],
        name_cache: Optional[Dict[int, bytes]] = None,
        apex_cache: Optional[Dict[int, bytes]] = None,
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
        planned = np.isin(self.dns_ids, np.fromiter(self.dns_plan_ns, np.int64))
        if not planned.all():
            missing = sorted(set(self.dns_ids[~planned].tolist()))
            raise ArchiveError(
                f"dns plans missing from the shard table: {missing}"
            )
        self.summary = summary
        self.domains_at = domains_at
        self.apexes_at = apexes_at
        self.name_cache = name_cache
        self.apex_cache = apex_cache

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
        apex_cache: Optional[Dict[int, bytes]] = None,
        plan_cache: Optional[Dict[Tuple[int, int], Tuple[Tuple[str, ...], Tuple[int, ...]]]] = None,
        name_cache: Optional[Dict[int, bytes]] = None,
    ) -> "DayStream":
        """Stream view of one live :class:`DailySnapshot`.

        Numeric columns and the NS plan table are built up front;
        domain names and apex tuples are looked up in the world a list
        of positions at a time, so nothing per-domain outlives the chunk
        being encoded.  Names are read as text from the population's
        columns (:meth:`~repro.registry.population.DomainPopulation.name_texts`)
        and apex runs come from
        :meth:`~repro.sim.world.World.apex_addresses_for_plans`, so the
        build makes no :class:`~repro.registry.domain.DomainRecord` or
        :class:`~repro.dns.name.DomainName` per domain.
        ``summary`` is the day's
        :func:`~repro.archive.kernel.summarize_snapshot`, computed by
        the caller.

        The caches are accelerators a builder threads through
        consecutive days.  ``name_cache`` maps a domain index to its
        encoded name and ``apex_cache`` maps ``(domain_index,
        hosting_id)`` — packed into one int by :func:`_apex_keys` — to
        its encoded apex run; both hold codec bytes, so a hit skips the
        world lookup *and* the encode.  ``plan_cache`` maps
        ``(epoch_start_day, dns_id)`` to the plan's NS names and
        addresses.  Names never change and an apex run depends only on
        its key, so a hit is always current; assignments change
        rarely, so almost every position hits.  The encoded caches hold
        one entry per measured domain and per distinct ``(domain,
        plan)`` pair seen.
        """
        world = snapshot.world
        epoch = snapshot.epoch
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

        def domains_at(positions: List[int]) -> List[str]:
            return world.population.name_texts(measured[positions].tolist())

        def apexes_at(positions: List[int]) -> List[Tuple[int, ...]]:
            indices = measured[positions].tolist()
            runs = world.apex_addresses_for_plans(
                indices, hosting_ids[positions].tolist(),
                _cached_names(name_cache, indices),
            )
            return [tuple(sorted(run)) for run in runs]

        return cls(
            snapshot.date,
            epoch.start_day,
            len(snapshot.dns_ids),
            measured,
            dns_ids,
            hosting_ids,
            dns_plan_ns,
            summary,
            domains_at,
            apexes_at,
            name_cache,
            apex_cache,
        )

    @classmethod
    def from_record(cls, record) -> "DayStream":
        """Stream view of a decoded :class:`DayShardRecord`.

        Positions are read through the record's per-position accessors,
        so re-encoding a record read from a shard reproduces the file.
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
            lambda positions: list(map(record._domain_at, positions)),
            lambda positions: list(map(record._apex_at, positions)),
        )

    # ------------------------------------------------------------------
    # Chunk encoders
    # ------------------------------------------------------------------

    def domains_chunk(self, lo: int, hi: int) -> bytes:
        """Encoded domain-name column for positions ``[lo, hi)``."""
        return _encoded_chunk(
            self.name_cache, self.measured[lo:hi].tolist(), lo,
            self.domains_at, write_string,
        )

    def apex_chunk(self, lo: int, hi: int) -> bytes:
        """Encoded apex delta-run column for positions ``[lo, hi)``."""
        return _encoded_chunk(
            self.apex_cache,
            _apex_keys(self.measured[lo:hi], self.hosting_ids[lo:hi]),
            lo, self.apexes_at, write_delta_run,
        )

    def __repr__(self) -> str:
        return f"DayStream({self.date}, {len(self.measured)} measured)"


def _cached_names(
    name_cache: Optional[Dict[int, bytes]], indices: List[int]
) -> Optional[List[str]]:
    """The names of ``indices`` decoded from ``name_cache``, if all are there.

    A stream's domain chunks are encoded before its apex chunks, so by
    the time an apex run misses, its domain's name is normally cached
    and need not be read and checked again.
    """
    if name_cache is None:
        return None
    pieces = list(map(name_cache.get, indices))
    if None in pieces:
        return None
    return [read_string(piece, 0)[0] for piece in pieces]


def _apex_keys(measured: np.ndarray, hosting_ids: np.ndarray) -> List[int]:
    """One int per ``(domain_index, hosting_id)`` pair, injectively.

    The hosting id fills the low 32 bits (as unsigned), so keys are
    built vectorised and cost one int apiece rather than a tuple.
    """
    low = hosting_ids.astype(np.int64) & 0xFFFFFFFF
    return ((measured.astype(np.int64) << 32) | low).tolist()


def _encoded_chunk(
    cache: Optional[Dict[int, bytes]],
    keys: List[int],
    lo: int,
    values_at: Callable[[List[int]], List[object]],
    write: Callable[[bytearray, object], None],
) -> bytes:
    """Positions ``lo ..`` encoded by ``write``: cache hits, joined.

    ``keys[i]`` names position ``lo + i`` in ``cache``.  The misses'
    values come from one ``values_at`` call with their positions; each
    is encoded and stored for the next day.  With no cache the chunk
    fills a throwaway one.
    """
    if cache is None:
        cache = {}
    pieces = list(map(cache.get, keys))
    missing = [offset for offset, piece in enumerate(pieces) if piece is None]
    if missing:
        values = values_at([lo + offset for offset in missing])
        for offset, value in zip(missing, values):
            buffer = bytearray()
            write(buffer, value)
            pieces[offset] = cache[keys[offset]] = bytes(buffer)
    return b"".join(pieces)


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


def _compress_pieces(
    handle: BinaryIO,
    pieces: "queue.Queue[Optional[bytes]]",
    errors: List[BaseException],
) -> None:
    """Compressor thread: deflate queued pieces onto ``handle``.

    ``None`` ends the stream (the compressor is flushed).  The first
    exception is kept in ``errors`` for the writer to re-raise; after
    it the queue is only drained, so the writer never blocks on it.
    """
    compressor = zlib.compressobj(_ZLIB_LEVEL)
    piece: Optional[bytes] = b""
    while piece is not None:
        piece = pieces.get()
        if errors:
            continue
        try:
            if piece is None:
                handle.write(compressor.flush())
            else:
                handle.write(compressor.compress(piece))
        except BaseException as exc:
            # Re-raised by the writer after the join; caught broadly so
            # that no failure can leave the writer blocked on the queue.
            errors.append(exc)


def _start_encode(
    handle: BinaryIO, stream: DayStream, faults=None, key: str = ""
) -> Callable[[], Tuple[int, int]]:
    """Start writing ``stream``'s shard to the seekable ``handle``.

    The start half of one encode, on the calling thread: the header goes
    down as a placeholder, then the compressed summary block, then every
    payload piece is fed to one compressor thread (see the module
    docstring) while the payload CRC is folded.  The returned
    ``finish()`` is the rest: it joins the thread, re-raises the first
    exception the thread raised and returns ``(file_bytes, crc32)``.
    The header CRC covers zeroed-header || summary || payload; the
    first two are known only once the payload length is final, so their
    CRC is combined with the independently streamed payload CRC and the
    real header is written over the placeholder once the thread is
    joined.

    With a fault plan, ``shard.write.bytes`` is rolled once under
    ``key`` (it may flip a bit of the summary block, which the caller's
    read-back verify catches) before the mid-write ``shard.write``
    check, the same order :func:`repro.ioutil.atomic_write_bytes` uses.
    Both happen before the thread starts.  If feeding fails, the thread
    is joined before the error leaves.
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
    pieces: "queue.Queue[Optional[bytes]]" = queue.Queue(QUEUE_DEPTH)
    errors: List[BaseException] = []
    compressor = threading.Thread(
        target=_compress_pieces,
        args=(handle, pieces, errors),
        name="shard-compressor",
        daemon=True,
    )
    compressor.start()
    try:
        for piece in _stream_pieces(stream):
            if errors:
                break
            payload_length += len(piece)
            payload_crc = zlib.crc32(piece, payload_crc)
            pieces.put(piece)
    except BaseException:
        pieces.put(None)
        compressor.join()
        raise
    pieces.put(None)

    def finish() -> Tuple[int, int]:
        compressor.join()
        if errors:
            raise errors[0]
        file_bytes = handle.tell()
        crc = crc32_combine(
            zlib.crc32(summary, zlib.crc32(header(0, payload_length))),
            payload_crc,
            payload_length,
        )
        handle.seek(0)
        handle.write(header(crc, payload_length))
        return file_bytes, crc

    return finish


def encode_stream(stream: DayStream) -> Tuple[bytes, int]:
    """``stream``'s shard as in-memory bytes; returns ``(blob, crc32)``."""
    buffer = io.BytesIO()
    _, crc = _start_encode(buffer, stream)()
    return buffer.getvalue(), crc


class ShardWrite:
    """A shard write whose start half has run; :meth:`result` finishes it.

    Returned by ``write_shard_stream(..., wait=False)``.  The compressor
    thread may still be deflating the day's last pieces, so the caller
    can get on with the next day meanwhile.  Every write must be
    finished: until :meth:`result` has run, its thread is live and its
    temp file exists.
    """

    __slots__ = ("_steps", "_outcome")

    def __init__(self, steps) -> None:
        self._steps = steps
        self._outcome: Optional[Tuple[int, int]] = None
        next(steps)

    def result(self) -> Tuple[int, int]:
        """Finish the write (retrying it whole if needed); ``(file_bytes, crc32)``."""
        if self._outcome is None:
            try:
                next(self._steps)
            except StopIteration as done:
                self._outcome = done.value
        return self._outcome


def _write_steps(path, stream, faults, retries, backoff):
    """The attempts of one :func:`write_shard_stream`, as a generator.

    It pauses once, when the first attempt's start half is done (every
    piece fed to its compressor thread); resuming it joins the thread
    and finishes the attempt, and any retry then runs whole.  Returns
    ``(file_bytes, crc32)``.
    """
    name = os.path.basename(path)
    temp_path = f"{path}.tmp.{os.getpid()}"
    paused = False
    for attempt in range(retries + 1):
        key = f"{name}#{attempt}"
        try:
            try:
                with open(temp_path, "wb") as handle:
                    finish = _start_encode(handle, stream, faults, key)
                    if not paused:
                        paused = True
                        yield
                    file_bytes, crc = finish()
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


def write_shard_stream(
    path: str,
    stream: DayStream,
    faults=None,
    retries: int = 6,
    backoff: float = 0.01,
    wait: bool = True,
):
    """Stream one day to ``path`` atomically; returns ``(file_bytes, crc32)``.

    Chunks are compressed as they are produced (on the compressor
    thread, which is joined before each attempt ends) and written to a
    same-directory temp file, which ``os.replace`` renames over the
    final name, so an interrupted or faulted write never leaves a torn
    shard behind a name that passes existence checks.

    With ``wait=False`` the call returns a :class:`ShardWrite` as soon
    as the first attempt has fed its last piece; the compressor thread
    deflates on, and ``result()`` finishes the write.  The split leaves
    every byte, fault roll and retry as they are.

    Fault discipline mirrors :func:`repro.ioutil.atomic_write_bytes`:
    the per-attempt key ``"<basename>#<attempt>"`` re-rolls every
    decision, ``shard.write.bytes`` is rolled once per attempt,
    ``shard.write`` fires mid-file, and when a plan is active the temp
    file is re-verified (a full CRC-checked read) before the rename.
    The read-back verify is the one step that is not bounded-memory; it
    only runs under fault injection.
    """
    write = ShardWrite(_write_steps(path, stream, faults, retries, backoff))
    return write.result() if wait else write

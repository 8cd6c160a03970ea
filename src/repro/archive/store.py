"""Reading side of the measurement archive.

:class:`MeasurementArchive` opens an archive directory, validates its
manifest, and serves CRC-checked day shards through a small LRU cache
(consecutive records pages of one day decode its shard once) and bare
summary blocks straight from disk (the facade caches the sweeps built
from them).  :class:`ArchiveCollector` then exposes the exact collector
interface the experiment layer already consumes — ``collect(date)`` and
``sweep(start, end, step)`` yielding snapshot objects — so every
:mod:`repro.core` reducer runs unchanged off disk.

Bit-identical results are structural, not incidental: an
:class:`ArchivedSnapshot` scatters the shard's per-measured plan ids
back over the population and borrows the epoch label tables from a
world rebuilt from the same scenario config, which is precisely the
state the live :class:`~repro.measurement.fast.FastCollector` computes.
Records pages need none of that: the facade reads the day's
:class:`DayShardRecord` through :meth:`MeasurementArchive.load_day` and
builds no world.

The archive is **self-healing** when opened with its scenario config: a
shard that fails its CRC (or any other integrity check) is quarantined
— renamed aside, never deleted — and rebuilt in place from the config,
which by shard-byte determinism reproduces the original bytes exactly.
:meth:`MeasurementArchive.repair` runs the same quarantine-and-rebuild
over every problem :meth:`verify_detailed` finds, and transient read
errors are retried with bounded backoff before any of that triggers.
"""

from __future__ import annotations

import datetime as _dt
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import (
    ArchiveError,
    ArchiveMismatchError,
    ArchiveStaleError,
    RecoveryError,
)
from ..api.deadline import check_deadline
from ..faults import TransientIOError
from ..ioutil import backoff_seconds
from ..measurement.fast import DailySnapshot
from ..measurement.metrics import SweepMetrics
from ..timeline import DateLike, as_date
from ..sim.world import World
from .manifest import Manifest
from .shard import DayShardRecord, read_shard, read_summary
from .summary import DaySummary

__all__ = [
    "Problem",
    "RepairReport",
    "MeasurementArchive",
    "ArchivedSnapshot",
    "ArchiveCollector",
]

#: Shards kept decoded in memory.
_DEFAULT_CACHE_SHARDS = 16

#: Transient-error retries per shard read, and their backoff base, seconds.
_READ_RETRIES = 3
_READ_BACKOFF = 0.01

#: Suffix quarantined shards are renamed to (not matched by the
#: ``*.shard`` orphan scan, so they never look adoptable).
QUARANTINE_SUFFIX = ".quarantined"


def _read_record(path: str, entry) -> Tuple[DayShardRecord, DaySummary, int]:
    """The whole-shard reader :meth:`MeasurementArchive.load_day` uses."""
    record = read_shard(path, expected_crc=entry.crc32)
    return record, record.summary, entry.bytes


def _read_summary_block(
    path: str, entry
) -> Tuple[DaySummary, DaySummary, int]:
    """The partial summary-block reader behind ``load_summary``."""
    summary, bytes_read = read_summary(path, expected_crc=entry.crc32)
    return summary, summary, bytes_read


class Problem:
    """One classified archive integrity problem.

    ``kind`` is a stable machine-readable tag: ``missing-shard``,
    ``truncated``, ``stale-manifest-crc``, ``corrupt``,
    ``date-mismatch``, ``record-count``, or ``orphan``.
    """

    __slots__ = ("kind", "date", "file", "message")

    def __init__(
        self,
        kind: str,
        date: Optional[_dt.date],
        file: Optional[str],
        message: str,
    ) -> None:
        self.kind = kind
        self.date = date
        self.file = file
        self.message = message

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"

    def __repr__(self) -> str:
        return f"Problem({self.kind!r}, {self.date}, {self.file!r})"


class RepairReport:
    """Outcome of one :meth:`MeasurementArchive.repair` call."""

    __slots__ = ("quarantined", "rebuilt", "remaining")

    def __init__(
        self,
        quarantined: List[str],
        rebuilt: List[_dt.date],
        remaining: List[Problem],
    ) -> None:
        #: Files renamed aside (``*.quarantined``), never deleted.
        self.quarantined = quarantined
        #: Dates re-swept and re-archived, chronological.
        self.rebuilt = rebuilt
        #: Problems still present after the repair (empty on success).
        self.remaining = remaining

    @property
    def ok(self) -> bool:
        """True when the archive verified clean after the repair."""
        return not self.remaining

    def __repr__(self) -> str:
        return (
            f"RepairReport({len(self.quarantined)} quarantined, "
            f"{len(self.rebuilt)} rebuilt, {len(self.remaining)} remaining)"
        )


class MeasurementArchive:
    """An opened on-disk archive: manifest plus cached shard access.

    When ``config`` (the scenario the archive was built from) is
    supplied, damaged shards self-heal on read: quarantine, rebuild
    from the config, re-read.  Without a config the archive is
    read-only and damage raises the classified :class:`ArchiveError`.
    """

    def __init__(
        self,
        directory: str,
        metrics: Optional[SweepMetrics] = None,
        config=None,
        faults=None,
    ) -> None:
        self.directory = str(directory)
        self.manifest = Manifest.load(self.directory)
        self.metrics = metrics
        self.config = config
        self.faults = faults
        self._cache: "OrderedDict[_dt.date, DayShardRecord]" = OrderedDict()
        #: Per-date uncached-read ordinals keying service.archive_read
        #: fault decisions (a retry re-rolls under a fresh key).
        self._service_reads: Dict[_dt.date, int] = {}
        self._rebuilder = None
        # The query service shares one archive across executor threads;
        # the decoded-shard LRU (and self-healing) must be race-free.
        self._lock = threading.RLock()

    def __contains__(self, date: DateLike) -> bool:
        return as_date(date) in self.manifest.days

    def reload(self) -> None:
        """Re-read the manifest from disk, picking up appended days.

        The live follow engine extends the archive while a serving
        process holds it open; shards are immutable once published, so
        the decoded-shard LRU stays valid — only the manifest needs
        refreshing.
        """
        with self._lock:
            self.manifest = Manifest.load(self.directory)

    def _entry(self, date_obj: _dt.date):
        entry = self.manifest.days.get(date_obj)
        if entry is None:
            raise ArchiveError(
                f"archive {self.directory} does not cover {date_obj} "
                "(extend it with 'repro archive build')"
            )
        return entry

    def load_day(self, date: DateLike) -> DayShardRecord:
        """The day's shard record, CRC-verified, via the LRU cache.

        Transient read errors retry with bounded backoff; integrity
        failures self-heal when the archive was opened with its
        scenario config.
        """
        date_obj = as_date(date)
        with self._lock:
            record = self._cache.get(date_obj)
            if record is not None:
                self._cache.move_to_end(date_obj)
                if self.metrics is not None:
                    self.metrics.record_cache("archive_shards", 1, 0)
                return record
            record = self._load(date_obj, _read_record)
            if self.metrics is not None:
                self.metrics.record_cache("archive_shards", 0, 1)
            self._cache[date_obj] = record
            while len(self._cache) > _DEFAULT_CACHE_SHARDS:
                self._cache.popitem(last=False)
            return record

    def load_summary(self, date: DateLike) -> DaySummary:
        """The day's pre-aggregated summary, read from disk.

        The coarse-query fast path: the shard answers from the first
        few hundred bytes of the file (header + compressed summary
        block) without decompressing — or reading — the per-domain
        columns.  Nothing is cached here: the facade keeps the sweeps
        built from summaries.
        """
        with self._lock:
            return self._load(as_date(date), _read_summary_block)

    def load_summaries(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> List[DaySummary]:
        """Per-day summaries for every ``step`` days in ``[start, end]``.

        Days the archive does not cover raise, exactly as
        :meth:`load_summary` would.
        """
        if step < 1:
            raise ArchiveError(f"range step must be >= 1 day: {step}")
        start_date = as_date(start)
        end_date = as_date(end)
        if start_date > end_date:
            raise ArchiveError(f"inverted range: {start_date} > {end_date}")
        summaries: List[DaySummary] = []
        day = start_date
        while day <= end_date:
            summaries.append(self.load_summary(day))
            day += _dt.timedelta(days=step)
        return summaries

    def _load(self, date_obj: _dt.date, read):
        """Read ``date_obj`` from disk with ``read``; the one read procedure.

        Shared by :meth:`load_day` and :meth:`load_summary`, and run
        under the archive lock: check the request deadline, roll the
        ``service.archive_read`` fault, look the day up in the manifest,
        read it with transient-error retry and check its identity.
        Integrity failures self-heal (quarantine + rebuild + re-read)
        when the archive was opened with its scenario config.
        """
        # A read that must leave memory is a phase boundary: a request
        # whose budget already ran out stops here instead of decoding
        # a shard nobody is waiting for.
        check_deadline("archive_read")
        if self.faults is not None:
            # The service-level read fault: unlike shard.read below it
            # is NOT retried in-path — it surfaces as a failed query so
            # the breaker and client retries recover it.
            ordinal = self._service_reads.get(date_obj, 0)
            self._service_reads[date_obj] = ordinal + 1
            self.faults.check("service.archive_read", f"{date_obj}#{ordinal}")
        entry = self._entry(date_obj)
        try:
            return self._read(date_obj, entry, read)
        except ArchiveMismatchError:
            raise
        except ArchiveError as exc:
            if self.config is None:
                raise
            return self._heal_day(date_obj, exc, read)

    def _read(self, date_obj: _dt.date, entry, read):
        """One CRC-checked read of ``entry``, with transient-error retry.

        ``read(path, entry)`` returns ``(value, summary, bytes_read)``;
        the summary's date and measured count must agree with the
        manifest entry, whichever kind of read it was.
        """
        path = os.path.join(self.directory, entry.file)
        for attempt in range(_READ_RETRIES + 1):
            started = time.perf_counter()
            try:
                if self.faults is not None:
                    self.faults.check("shard.read", f"{entry.file}#{attempt}")
                value, summary, bytes_read = read(path, entry)
                break
            except TransientIOError as exc:
                if attempt >= _READ_RETRIES:
                    raise RecoveryError(
                        f"could not read shard {entry.file} after "
                        f"{attempt + 1} attempts: {exc}"
                    ) from exc
                time.sleep(backoff_seconds(attempt, _READ_BACKOFF))
        elapsed = time.perf_counter() - started
        if summary.date != date_obj:
            raise ArchiveStaleError(
                f"shard {entry.file} contains {summary.date}, manifest says {date_obj}"
            )
        if summary.measured_count != entry.records:
            raise ArchiveStaleError(
                f"shard {entry.file} has {summary.measured_count} records, "
                f"manifest says {entry.records}"
            )
        if self.metrics is not None:
            with self.metrics.phase("archive_read") as stat:
                pass
            stat.wall_seconds += elapsed
            stat.snapshots += 1
            stat.notes["bytes"] = int(stat.notes.get("bytes", 0)) + bytes_read
        return value

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------

    def _builder(self, config):
        """An :class:`ArchiveBuilder` matching the manifest's collector.

        Cached across heals so the rebuild world is constructed once.
        The collector parameters (outage dates, coverage, seed) come
        from the manifest itself, so a rebuilt shard reproduces the
        original measurements exactly.
        """
        if self._rebuilder is None or self._rebuilder.config is not config:
            from .builder import ArchiveBuilder

            collector = self.manifest.collector
            self._rebuilder = ArchiveBuilder(
                self.directory,
                config,
                metrics=self.metrics,
                outage_dates=[as_date(t) for t in collector["outage_dates"]],
                outage_coverage=float(collector["outage_coverage"]),
                collector_seed=int(collector["seed"]),
            )
        return self._rebuilder

    def _quarantine(self, file: str) -> bool:
        """Rename a damaged shard aside; returns False if it was absent."""
        path = os.path.join(self.directory, file)
        if not os.path.exists(path):
            return False
        os.replace(path, path + QUARANTINE_SUFFIX)
        return True

    def _heal_day(self, date_obj: _dt.date, cause: ArchiveError, read):
        """Quarantine and rebuild one damaged day, then re-read it with ``read``."""
        entry = self.manifest.days[date_obj]
        self._quarantine(entry.file)
        del self.manifest.days[date_obj]
        self.manifest.save(self.directory)
        if self.metrics is not None:
            self.metrics.record_recovery("shards_quarantined", 1)
        self._builder(self.config).build(date_obj, date_obj, 1)
        self.manifest = Manifest.load(self.directory)
        entry = self.manifest.days.get(date_obj)
        if entry is None:
            raise RecoveryError(
                f"rebuild of {date_obj} produced no shard (original error: {cause})"
            ) from cause
        value = self._read(date_obj, entry, read)
        if self.metrics is not None:
            self.metrics.record_recovery("shards_rebuilt", 1)
        return value

    def repair(self, config=None) -> RepairReport:
        """Quarantine and rebuild everything :meth:`verify_detailed` flags.

        ``config`` must describe the scenario the archive was built
        from (checked against the manifest fingerprint —
        :class:`ArchiveMismatchError` otherwise).  Orphan shards from
        interrupted builds are quarantined too; rebuilding is driven
        from the manifest, which stays authoritative.
        """
        config = config if config is not None else self.config
        if config is None:
            raise ArchiveError(
                "repair needs the archive's scenario config to rebuild shards"
            )
        self.manifest.check_scenario(config)
        problems = self.verify_detailed()
        if not problems:
            return RepairReport([], [], [])
        quarantined: List[str] = []
        bad_dates: List[_dt.date] = []
        for problem in problems:
            if problem.file is not None and self._quarantine(problem.file):
                quarantined.append(problem.file)
            if problem.date is not None:
                bad_dates.append(problem.date)
                self.manifest.days.pop(problem.date, None)
        bad_dates = sorted(set(bad_dates))
        self.manifest.save(self.directory)
        if self.metrics is not None and quarantined:
            self.metrics.record_recovery("shards_quarantined", len(quarantined))
        if bad_dates:
            from .builder import _segments

            builder = self._builder(config)
            for seg_start, seg_end, seg_step in _segments(bad_dates):
                builder.build(seg_start, seg_end, seg_step)
            if self.metrics is not None:
                self.metrics.record_recovery("shards_rebuilt", len(bad_dates))
        self.manifest = Manifest.load(self.directory)
        with self._lock:
            self._cache.clear()
        return RepairReport(quarantined, bad_dates, self.verify_detailed())

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_detailed(self) -> List[Problem]:
        """Re-read every shard against the manifest; classified problems."""
        problems: List[Problem] = []
        listed = set()
        for date in self.manifest.covered_dates():
            entry = self.manifest.days[date]
            listed.add(entry.file)
            path = os.path.join(self.directory, entry.file)
            try:
                size = os.path.getsize(path)
            except OSError:
                problems.append(
                    Problem(
                        "missing-shard",
                        date,
                        entry.file,
                        f"{date}: shard file {entry.file} is missing",
                    )
                )
                continue
            if size != entry.bytes:
                problems.append(
                    Problem(
                        "truncated",
                        date,
                        entry.file,
                        f"{date}: {entry.file} is {size} bytes, "
                        f"manifest says {entry.bytes}",
                    )
                )
                continue
            try:
                record = read_shard(path, expected_crc=entry.crc32)
            except ArchiveStaleError as exc:
                problems.append(
                    Problem("stale-manifest-crc", date, entry.file, f"{date}: {exc}")
                )
                continue
            except ArchiveError as exc:
                problems.append(
                    Problem("corrupt", date, entry.file, f"{date}: {exc}")
                )
                continue
            if record.date != date:
                problems.append(
                    Problem(
                        "date-mismatch",
                        date,
                        entry.file,
                        f"{date}: {entry.file} contains {record.date} instead",
                    )
                )
            elif len(record.measured) != entry.records:
                problems.append(
                    Problem(
                        "record-count",
                        date,
                        entry.file,
                        f"{date}: {entry.file} has {len(record.measured)} records, "
                        f"manifest says {entry.records}",
                    )
                )
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".shard") and name not in listed:
                problems.append(
                    Problem(
                        "orphan",
                        None,
                        name,
                        f"{name} is not listed in the manifest "
                        "(interrupted build; rerun 'repro archive build' to adopt it)",
                    )
                )
        return problems

    def verify(self) -> List[str]:
        """Re-read every shard against the manifest; returns problems found."""
        return [str(problem) for problem in self.verify_detailed()]


class ArchivedSnapshot(DailySnapshot):
    """A :class:`DailySnapshot` reconstructed from a day shard.

    Plan-id columns are scattered back over the full population (only
    positions named by ``measured`` are ever read), and the epoch label
    tables come from the companion world, which the constructor checks
    the shard against.

    Only the queries that classify domains (movement, whois, and the
    experiments built on them) take this form and build the world.
    Records pages read the :class:`DayShardRecord` itself.
    """

    __slots__ = ("_record",)

    def __init__(self, world: World, record: DayShardRecord) -> None:
        if record.population_size != len(world.population):
            raise ArchiveError(
                f"shard for {record.date} covers a population of "
                f"{record.population_size}, world has {len(world.population)}"
            )
        epoch = world.epoch_at(record.date)
        if epoch.start_day != record.epoch_start_day:
            raise ArchiveError(
                f"shard for {record.date} was built under epoch "
                f"{record.epoch_start_day}, world derives {epoch.start_day} "
                "(stale archive?)"
            )
        # The shard columns are already at their final dtypes (measured
        # int64, plan ids int32), so the only per-snapshot allocations
        # are the two population-sized scatter buffers.  Unmeasured
        # positions hold the sentinel -1, NOT plan id 0: a consumer that
        # indexes outside ``measured`` gets a loudly-invalid id (numpy
        # bincount raises on negatives) instead of silently counting a
        # genuine plan 0.
        measured = record.measured
        dns_ids = np.full(record.population_size, -1, dtype=np.int32)
        hosting_ids = np.full(record.population_size, -1, dtype=np.int32)
        dns_ids[measured] = record.dns_ids
        hosting_ids[measured] = record.hosting_ids
        self.date = record.date
        self.measured = measured
        self.dns_ids = dns_ids
        self.hosting_ids = hosting_ids
        self.epoch = epoch
        self._world = world
        self._record = record

    @property
    def shard(self) -> DayShardRecord:
        """The underlying day-shard record."""
        return self._record


class ArchiveCollector:
    """Serves archived measurement days through the collector interface.

    Mirrors :class:`~repro.measurement.fast.FastCollector`: ``collect``
    for random access and ``sweep`` for longitudinal iteration.  Outages
    are baked into each shard's measured set, so replay is exact; the
    parameters they were collected under live in the manifest's
    ``collector`` block, which self-healing rebuilds from.
    """

    def __init__(
        self,
        archive: MeasurementArchive,
        world: "World | Callable[[], World]",
    ) -> None:
        self._archive = archive
        self._world_lock = threading.Lock()
        self._kernel = None
        if isinstance(world, World):
            self._check_world(world)
            self._world = world
            self._world_factory = None
        else:
            # A zero-arg factory: the world is built on first access.
            # Coarse queries served from shard summaries never trigger
            # it — world construction dominates live-sweep cost, so
            # deferring it is what lets the warm archive beat live.
            self._world = None
            self._world_factory = world

    def _check_world(self, world: World) -> None:
        if self._archive.manifest.population_size != len(world.population):
            raise ArchiveError(
                f"archive population ({self._archive.manifest.population_size}) "
                f"does not match the world ({len(world.population)})"
            )

    @property
    def archive(self) -> MeasurementArchive:
        """The backing archive."""
        return self._archive

    @property
    def kernel(self):
        """The columnar query kernel over this collector (cached).

        Coarse queries routed through it run on stored shard summaries
        and never materialise snapshots or the world.
        """
        if self._kernel is None:
            from .kernel import ArchiveQueryKernel

            self._kernel = ArchiveQueryKernel(self)
        return self._kernel

    @property
    def world(self) -> World:
        """The companion world (epoch labels, sanctions, catalog).

        Built lazily when the collector was given a factory; queries
        answered purely from shard summaries never pay for it.
        """
        if self._world is None:
            with self._world_lock:
                if self._world is None:
                    world = self._world_factory()
                    self._check_world(world)
                    self._world = world
        return self._world

    def collect(self, date: DateLike) -> ArchivedSnapshot:
        """Load one archived day (random access)."""
        return ArchivedSnapshot(self.world, self._archive.load_day(date))

    def sweep(
        self, start: DateLike, end: DateLike, step: int = 1
    ) -> Iterator[ArchivedSnapshot]:
        """Replay every ``step`` days in [start, end] from disk."""
        if step < 1:
            raise ArchiveError(f"sweep step must be >= 1 day: {step}")
        day = as_date(start)
        end_date = as_date(end)
        while day <= end_date:
            yield self.collect(day)
            day += _dt.timedelta(days=step)

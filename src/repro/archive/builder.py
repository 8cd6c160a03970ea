"""Incremental, resumable archive builds.

:class:`ArchiveBuilder` drives the in-process :class:`SweepEngine` with
a reducer that writes one day shard per measurement day and returns
only a small :class:`ShardInfo`; the builder folds those into the
manifest and rewrites it atomically after every contiguous segment.
Two properties follow:

* **incremental** — only days missing from the manifest are swept, so
  extending an archive (new date range, finer cadence) reuses every
  existing shard;
* **resumable** — an interrupted build leaves at worst unregistered
  shard files; the next build re-derives the missing days and, because
  shard bytes are deterministic, converges on an archive byte-identical
  to an uninterrupted build.

Every day goes through the one streaming writer
(:func:`~repro.archive.stream.write_shard_stream`), so a build's
transient memory stays bounded by the writer's chunk at any scale; the
reducer's encoded caches are the part that grows with the population.
Consecutive days' writes overlap (:data:`DAYS_IN_FLIGHT`): day N's
compressor thread finishes while days N+1 and N+2 are collected and
fed.
"""

from __future__ import annotations

import datetime as _dt
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ArchiveError, ArchiveMismatchError
from ..faults import sync_fault_metrics
from ..measurement.fast import DEFAULT_OUTAGE_DATES, _OUTAGE_COVERAGE, FastCollector
from ..measurement.metrics import SweepMetrics
from ..measurement.sweep import SweepEngine
from ..timeline import RECENT_WINDOW_START, STUDY_END, STUDY_START, DateLike, as_date
from .kernel import summarize_snapshot
from .manifest import DayEntry, Manifest, scenario_fingerprint
from .shard import probe_shard
from .store import MeasurementArchive
from .stream import DayStream, write_shard_stream

__all__ = [
    "DAYS_IN_FLIGHT",
    "ShardInfo",
    "ArchiveShardReducer",
    "BuildReport",
    "ArchiveBuilder",
    "standard_plan_dates",
    "shard_filename",
]

def shard_filename(date: _dt.date) -> str:
    """Canonical shard file name for one day."""
    return f"{date.isoformat()}.shard"


class ShardInfo:
    """What the reducer reports after writing one day shard."""

    __slots__ = ("date", "file", "bytes", "records", "crc32", "write_seconds")

    def __init__(
        self,
        date: _dt.date,
        file: str,
        bytes: int,
        records: int,
        crc32: int,
        write_seconds: float,
    ) -> None:
        self.date = date
        self.file = file
        self.bytes = bytes
        self.records = records
        self.crc32 = crc32
        self.write_seconds = write_seconds

    def entry(self) -> DayEntry:
        return DayEntry(self.date, self.file, self.bytes, self.records, self.crc32)

    def __repr__(self) -> str:
        return f"ShardInfo({self.date}, {self.bytes}B)"


#: Shard writes a build keeps started but not finished at once.  Day
#: N's compressor thread deflates its last pieces while days N+1 and
#: N+2 are collected, summarized and fed, so days compress on two cores;
#: one deflate stream cannot be split without changing its bytes.  A
#: third day in flight gives a day's deflate two days' calling-thread
#: work to hide behind: over alternating in-process 93-day 1:250 builds
#: on 2 cores it cut the day loop's wall time at equal CPU time (see
#: CHANGES.md), for about a megabyte more peak memory.
DAYS_IN_FLIGHT = 3


class _DayWrite:
    """A day whose shard write is started: its handle and calling-thread time.

    It keeps the day's date, not its snapshot, so a day in flight holds
    no whole-population columns; :meth:`ArchiveShardReducer.reduce_day`
    reads only ``date``, so it accepts one in a snapshot's place.
    """

    __slots__ = ("date", "records", "write", "seconds")

    def __init__(self, date: _dt.date, records: int, write, seconds: float) -> None:
        self.date = date
        self.records = records
        self.write = write
        self.seconds = seconds


class ArchiveShardReducer:
    """Day reducer that persists each snapshot as one day shard.

    Carries :meth:`DayStream.from_snapshot
    <repro.archive.stream.DayStream.from_snapshot>`'s caches from day to
    day: the encoded name bytes per domain index, the encoded apex run
    per ``(domain_index, hosting_id)``, and the NS plan table entry per
    ``(epoch, dns_id)``.  Assignments change rarely, so consecutive days
    hit almost every time and a day's columns are mostly joins of
    cached bytes.  :class:`ArchiveBuilder` keeps one reducer for its
    lifetime, so the caches also carry across its ``build()`` calls.
    They grow with the measured domains and the distinct ``(domain,
    plan)`` pairs the builder has seen.

    The engine hands it whole runs (:meth:`reduce_run`), which overlap
    up to :data:`DAYS_IN_FLIGHT` days' writes; :meth:`reduce_day`
    returns a day's :class:`ShardInfo` only once its shard is on disk.
    """

    def __init__(
        self,
        directory: str,
        faults=None,
        metrics: Optional[SweepMetrics] = None,
    ) -> None:
        self.directory = str(directory)
        self.faults = faults
        #: Metrics for RSS sampling after every written day.
        self.metrics = metrics
        self._name_cache: Dict[int, bytes] = {}
        self._apex_cache: Dict[int, bytes] = {}
        self._plan_cache: Dict[Tuple[int, int], Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}
        #: Started, unfinished writes by date, oldest first.
        self._in_flight: Dict[_dt.date, _DayWrite] = {}

    def reduce_run(self, snapshots) -> List[ShardInfo]:
        """Write every day of one engine run; the infos in date order.

        Each day's write starts as soon as its snapshot arrives, and
        once :data:`DAYS_IN_FLIGHT` writes are in flight the oldest is
        finished by :meth:`reduce_day`, so day N deflates while the
        next days are collected, summarized and fed.  Under a fault plan
        each day is written whole by its own :meth:`reduce_day`, so the
        plan's events and injection budget stay in date order.  When an
        exception leaves, every write in flight is finished first: a
        retried run must not meet its own temp files.
        """
        depth = 1 if self.faults is not None else DAYS_IN_FLIGHT
        infos: List[ShardInfo] = []
        try:
            for snapshot in snapshots:
                self._in_flight[snapshot.date] = self._start(snapshot)
                if len(self._in_flight) >= depth:
                    infos.append(self.reduce_day(self._oldest()))
            while self._in_flight:
                infos.append(self.reduce_day(self._oldest()))
        except BaseException:
            while self._in_flight:
                try:
                    self.reduce_day(self._oldest())
                except Exception:
                    pass  # the first error is the one that leaves
            raise
        return infos

    def reduce_day(self, snapshot) -> ShardInfo:
        """Write one day (finish it, if :meth:`reduce_run` started it).

        A started day is found by ``snapshot.date``, so :meth:`reduce_run`
        passes its :class:`_DayWrite`.  Returns the manifest metadata
        once the shard is on disk.  Its ``write_seconds`` is the day's
        time on the calling thread: summarize, feed and the wait for its
        compressor, never the time it deflated beside another day.
        """
        day = self._in_flight.pop(snapshot.date, None) or self._start(snapshot)
        started = time.perf_counter()
        file_bytes, crc = day.write.result()
        if self.metrics is not None:
            self.metrics.sample_rss()
        return ShardInfo(
            snapshot.date,
            shard_filename(snapshot.date),
            file_bytes,
            day.records,
            crc,
            day.seconds + time.perf_counter() - started,
        )

    def _oldest(self) -> _DayWrite:
        return next(iter(self._in_flight.values()))

    def _start(self, snapshot) -> _DayWrite:
        """Summarize one day and start its write (the start half)."""
        started = time.perf_counter()
        # Pre-aggregate the day once at build time (shard format v3):
        # readers answer the coarse longitudinal queries from this block
        # without decoding the columns or building a world.
        summary = summarize_snapshot(snapshot)
        stream = DayStream.from_snapshot(
            snapshot, summary, self._apex_cache, self._plan_cache,
            self._name_cache,
        )
        write = write_shard_stream(
            os.path.join(self.directory, shard_filename(snapshot.date)),
            stream, faults=self.faults, wait=False,
        )
        return _DayWrite(
            snapshot.date, len(stream), write, time.perf_counter() - started
        )


class BuildReport:
    """Outcome of one :meth:`ArchiveBuilder.build` call."""

    __slots__ = ("written", "skipped", "bytes_written", "segments", "adopted")

    def __init__(
        self,
        written: List[_dt.date],
        skipped: List[_dt.date],
        bytes_written: int,
        segments: int,
        adopted: Optional[List[_dt.date]] = None,
    ) -> None:
        #: Days swept and persisted by this call, chronological.
        self.written = written
        #: Requested days the manifest already covered.
        self.skipped = skipped
        self.bytes_written = bytes_written
        #: Contiguous missing-day runs the call was split into.
        self.segments = segments
        #: Verified orphan shards (from an interrupted build) registered
        #: into the manifest without a re-sweep, chronological.
        self.adopted = [] if adopted is None else adopted

    def __repr__(self) -> str:
        return (
            f"BuildReport({len(self.written)} written, "
            f"{len(self.skipped)} skipped, {len(self.adopted)} adopted, "
            f"{self.bytes_written}B)"
        )


def standard_plan_dates(cadence_days: int = 7) -> List[_dt.date]:
    """The dates the standard experiments sweep, chronological.

    The full study period at ``cadence_days`` plus the conflict window
    (Figures 4 and 5) daily.
    """
    if cadence_days < 1:
        raise ArchiveError(f"cadence must be >= 1 day: {cadence_days}")
    dates = set(_date_grid(STUDY_START, STUDY_END, cadence_days))
    dates.update(_date_grid(RECENT_WINDOW_START, STUDY_END, 1))
    return sorted(dates)


def _date_grid(start: DateLike, end: DateLike, step: int) -> List[_dt.date]:
    if step < 1:
        raise ArchiveError(f"build step must be >= 1 day: {step}")
    start_date, end_date = as_date(start), as_date(end)
    if start_date > end_date:
        raise ArchiveError(f"empty build range {start_date} .. {end_date}")
    grid = []
    day = start_date
    while day <= end_date:
        grid.append(day)
        day += _dt.timedelta(days=step)
    return grid


def _segments(dates: Sequence[_dt.date]) -> List[Tuple[_dt.date, _dt.date, int]]:
    """Split sorted dates into maximal constant-stride (start, end, step) runs."""
    runs: List[Tuple[_dt.date, _dt.date, int]] = []
    i = 0
    while i < len(dates):
        j = i
        stride = (
            (dates[i + 1] - dates[i]).days if i + 1 < len(dates) else 1
        )
        while j + 1 < len(dates) and (dates[j + 1] - dates[j]).days == stride:
            j += 1
        runs.append((dates[i], dates[j], stride))
        i = j + 1
    return runs


class ArchiveBuilder:
    """Builds or extends one archive directory from a scenario config."""

    def __init__(
        self,
        directory: str,
        config,
        metrics: Optional[SweepMetrics] = None,
        outage_dates: Sequence[_dt.date] = DEFAULT_OUTAGE_DATES,
        outage_coverage: float = _OUTAGE_COVERAGE,
        collector_seed: int = 7,
        faults=None,
    ) -> None:
        self.directory = str(directory)
        self.config = config
        self.metrics = metrics
        self.faults = faults
        self._outage_dates = tuple(sorted(as_date(d) for d in outage_dates))
        self._outage_coverage = float(outage_coverage)
        self._collector_seed = int(collector_seed)
        # The world/engine are built lazily: a fully-covered (no-op
        # resume) build never pays the world construction cost.
        self._engine: Optional[SweepEngine] = None
        self._world = None
        # One reducer per builder (one world per builder), so its
        # encoded caches carry across build() calls: live follow and
        # self-heal build one day per call.
        self._reducer = ArchiveShardReducer(
            self.directory, faults=faults, metrics=metrics
        )

    # ------------------------------------------------------------------
    # Lazy simulation state
    # ------------------------------------------------------------------

    def _ensure_engine(self) -> SweepEngine:
        if self._engine is None:
            from ..sim.conflict import build_world

            if self.metrics is not None:
                with self.metrics.phase("world_build"):
                    self._world = build_world(self.config)
            else:
                self._world = build_world(self.config)
            collector = FastCollector(
                self._world,
                outage_dates=self._outage_dates,
                outage_coverage=self._outage_coverage,
                seed=self._collector_seed,
            )
            self._engine = SweepEngine(
                collector,
                metrics=self.metrics,
                faults=self.faults,
            )
        return self._engine

    def _collector_params(self) -> Dict[str, object]:
        return {
            "outage_dates": [d.isoformat() for d in self._outage_dates],
            "outage_coverage": self._outage_coverage,
            "seed": self._collector_seed,
        }

    def _load_or_create_manifest(self) -> Manifest:
        if os.path.exists(os.path.join(self.directory, "manifest.json")):
            manifest = Manifest.load(self.directory)
            manifest.check_scenario(self.config)
            if manifest.collector != self._collector_params():
                raise ArchiveMismatchError(
                    "archive was collected under different outage parameters "
                    f"(archive={manifest.collector}, "
                    f"requested={self._collector_params()})"
                )
            return manifest
        os.makedirs(self.directory, exist_ok=True)
        self._ensure_engine()
        return Manifest(
            scenario_fingerprint(self.config),
            self._collector_params(),
            len(self._world.population),
        )

    # ------------------------------------------------------------------
    # Builds
    # ------------------------------------------------------------------

    def _adopt_orphans(
        self, manifest: Manifest, missing: Sequence[_dt.date]
    ) -> List[_dt.date]:
        """Register verified orphan shards for missing days, no re-sweep.

        An interrupted build — a crash or kill between a shard write
        and the segment's manifest flush — leaves complete, CRC-valid
        shard files that the manifest never recorded.  Because shard
        bytes are write-atomic and deterministic, such a file *is* the
        shard the resume would produce; probing it (full CRC verify plus
        a date/population identity check) and adding its manifest entry
        converges on the identical archive without re-sweeping the day.
        Anything that fails the probe is left for the normal re-sweep,
        whose atomic write replaces it.
        """
        adopted: List[_dt.date] = []
        for date in missing:
            name = shard_filename(date)
            path = os.path.join(self.directory, name)
            if not os.path.exists(path):
                continue
            try:
                probe = probe_shard(path)
            except ArchiveError:
                continue
            if (
                probe.date != date
                or probe.population_size != manifest.population_size
            ):
                continue
            manifest.add_day(
                DayEntry(date, name, probe.file_bytes, probe.records, probe.crc32)
            )
            adopted.append(date)
        return adopted

    def _remove_temp_files(self, dates: Sequence[_dt.date]) -> None:
        """Delete the temp files a killed build left for ``dates``.

        A process killed with shard writes in flight leaves each one's
        ``<shard>.tmp.<pid>``; the day is written again under this
        process's pid, so the old temp file would stay for good.
        """
        names = {shard_filename(date) for date in dates}
        for name in os.listdir(self.directory):
            shard, temp, _ = name.partition(".tmp.")
            if temp and shard in names:
                os.unlink(os.path.join(self.directory, name))

    def build(self, start: DateLike, end: DateLike, step: int = 1) -> BuildReport:
        """Archive every ``step``-th day in [start, end] not yet covered."""
        wanted = _date_grid(start, end, step)
        manifest = self._load_or_create_manifest()
        missing = manifest.missing_dates(wanted)
        skipped = sorted(set(wanted) - set(missing))
        adopted = self._adopt_orphans(manifest, missing)
        if adopted:
            leftover = set(adopted)
            missing = [date for date in missing if date not in leftover]
        if self.metrics is not None:
            self.metrics.sample_rss()
        if not missing:
            # Still (re)write the manifest so a fresh no-op build of an
            # empty range leaves a valid archive behind (and adopted
            # orphans become durable).
            manifest.save(self.directory, faults=self.faults)
            return BuildReport([], skipped, 0, 0, adopted)
        engine = self._ensure_engine()
        os.makedirs(self.directory, exist_ok=True)
        self._remove_temp_files(missing)
        written: List[_dt.date] = []
        bytes_written = 0
        segments = _segments(missing)
        for seg_start, seg_end, seg_step in segments:
            if self.metrics is not None:
                with self.metrics.phase("archive_build"):
                    infos: List[ShardInfo] = engine.run(
                        self._reducer, seg_start, seg_end, seg_step, phase="archive_build"
                    )
            else:
                infos = engine.run(
                    self._reducer, seg_start, seg_end, seg_step, phase="archive_build"
                )
            for info in infos:
                manifest.add_day(info.entry())
                written.append(info.date)
                bytes_written += info.bytes
            # Flush after every segment: an interruption costs at most
            # the in-flight segment, never what is already on disk.
            manifest.save(self.directory, faults=self.faults)
            if self.metrics is not None:
                self.metrics.sample_rss()
                with self.metrics.phase("archive_write") as stat:
                    pass
                stat.wall_seconds += sum(info.write_seconds for info in infos)
                stat.snapshots += len(infos)
                stat.notes["bytes"] = (
                    int(stat.notes.get("bytes", 0))
                    + sum(info.bytes for info in infos)
                )
        if self.metrics is not None:
            sync_fault_metrics(self.faults, self.metrics)
        return BuildReport(written, skipped, bytes_written, len(segments), adopted)

    def build_standard(self, cadence_days: int = 7) -> BuildReport:
        """Archive what the standard experiments read.

        The full study period at ``cadence_days`` plus the conflict
        window (Figures 4 and 5) daily — the union the experiment
        context sweeps.
        """
        if cadence_days < 1:
            raise ArchiveError(f"cadence must be >= 1 day: {cadence_days}")
        full = self.build(STUDY_START, STUDY_END, cadence_days)
        recent = self.build(RECENT_WINDOW_START, STUDY_END, 1)
        return BuildReport(
            sorted(set(full.written) | set(recent.written)),
            sorted(set(full.skipped) | set(recent.skipped)),
            full.bytes_written + recent.bytes_written,
            full.segments + recent.segments,
            sorted(set(full.adopted) | set(recent.adopted)),
        )

    def open(self) -> MeasurementArchive:
        """Open the built archive for reading (self-healing enabled)."""
        return MeasurementArchive(
            self.directory, metrics=self.metrics, config=self.config
        )

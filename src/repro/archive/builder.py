"""Incremental, resumable archive builds.

:class:`ArchiveBuilder` drives the parallel :class:`SweepEngine` with a
reducer that writes one day shard per measurement day *inside the
worker process* and sends back only a small :class:`ShardInfo`; the
parent folds those into the manifest and rewrites it atomically after
every contiguous segment.  Three properties follow:

* **incremental** — only days missing from the manifest are swept, so
  extending an archive (new date range, finer cadence) reuses every
  existing shard;
* **resumable** — an interrupted build leaves at worst unregistered
  shard files; the next build re-derives the missing days and, because
  shard bytes are deterministic, converges on an archive byte-identical
  to an uninterrupted build;
* **parallel** — workers write shards independently (atomic temp-file
  renames), nothing but per-day metadata crosses the process boundary.

Every day goes through the one streaming writer
(:func:`~repro.archive.stream.write_shard_stream`), so a build's memory
stays bounded by the writer's chunk at any scale.
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
from ..timeline import STUDY_END, STUDY_START, DateLike, as_date
from .kernel import summarize_snapshot
from .manifest import DayEntry, Manifest, scenario_fingerprint
from .shard import probe_shard
from .store import MeasurementArchive
from .stream import DayStream, write_shard_stream

__all__ = [
    "RECENT_DAILY_START",
    "ShardInfo",
    "ArchiveShardReducer",
    "BuildReport",
    "ArchiveBuilder",
    "standard_plan_dates",
    "shard_filename",
]

#: Start of the daily conflict-window sweep (Figures 4 and 5).
RECENT_DAILY_START = _dt.date(2022, 2, 22)


def shard_filename(date: _dt.date) -> str:
    """Canonical shard file name for one day."""
    return f"{date.isoformat()}.shard"


class ShardInfo:
    """What a worker reports after writing one day shard."""

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


class ArchiveShardReducer:
    """Day reducer that persists each snapshot as a shard in the worker.

    The apex/plan materialisation caches are per-process accelerators
    keyed by ``(domain_index, hosting_id)`` / ``(epoch, dns_id)``;
    assignments change rarely, so consecutive days hit the caches almost
    every time.  They are dropped on pickling.
    """

    def __init__(
        self,
        directory: str,
        faults=None,
        metrics: Optional[SweepMetrics] = None,
    ) -> None:
        self.directory = str(directory)
        self.faults = faults
        #: Parent-process metrics for RSS sampling at chunk boundaries;
        #: dropped on pickling (worker processes sample nothing).
        self.metrics = metrics
        self._apex_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._plan_cache: Dict[Tuple[int, int], Tuple[Tuple[str, ...], Tuple[int, ...]]] = {}

    def __getstate__(self):
        return {"directory": self.directory, "faults": self.faults}

    def __setstate__(self, state) -> None:
        self.directory = state["directory"]
        self.faults = state.get("faults")
        self.metrics = None
        self._apex_cache = {}
        self._plan_cache = {}

    def reduce_day(self, snapshot) -> ShardInfo:
        """Columnarise and write one day; returns the manifest metadata."""
        started = time.perf_counter()
        name = shard_filename(snapshot.date)
        path = os.path.join(self.directory, name)
        # Pre-aggregate the day once at build time (shard format v3):
        # readers answer the coarse longitudinal queries from this block
        # without decoding the columns or building a world.
        summary = summarize_snapshot(snapshot)
        stream = DayStream.from_snapshot(
            snapshot, summary, self._apex_cache, self._plan_cache
        )
        file_bytes, crc = write_shard_stream(path, stream, faults=self.faults)
        if self.metrics is not None:
            self.metrics.sample_rss()
        return ShardInfo(
            snapshot.date,
            name,
            file_bytes,
            len(stream),
            crc,
            time.perf_counter() - started,
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
    dates.update(_date_grid(RECENT_DAILY_START, STUDY_END, 1))
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
        workers: int = 1,
        chunk_days: Optional[int] = None,
        metrics: Optional[SweepMetrics] = None,
        outage_dates: Sequence[_dt.date] = DEFAULT_OUTAGE_DATES,
        outage_coverage: float = _OUTAGE_COVERAGE,
        collector_seed: int = 7,
        faults=None,
    ) -> None:
        self.directory = str(directory)
        self.config = config
        self.workers = int(workers)
        self.chunk_days = chunk_days
        self.metrics = metrics
        self.faults = faults
        self._outage_dates = tuple(sorted(as_date(d) for d in outage_dates))
        self._outage_coverage = float(outage_coverage)
        self._collector_seed = int(collector_seed)
        # The world/engine are built lazily: a fully-covered (no-op
        # resume) build never pays the world construction cost.
        self._engine: Optional[SweepEngine] = None
        self._world = None

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
                config=self.config,
                workers=self.workers,
                chunk_days=self.chunk_days,
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

        An interrupted build — a crash mid-segment, a kill between a
        worker's shard write and the parent's manifest flush (the
        ``chunk_days`` window) — leaves complete, CRC-valid shard files
        that the manifest never recorded.  Because shard bytes are
        write-atomic and deterministic, such a file *is* the shard the
        resume would produce; probing it (full CRC verify plus a
        date/population identity check) and adding its manifest entry
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
        reducer = ArchiveShardReducer(
            self.directory, faults=self.faults, metrics=self.metrics
        )
        os.makedirs(self.directory, exist_ok=True)
        written: List[_dt.date] = []
        bytes_written = 0
        segments = _segments(missing)
        for seg_start, seg_end, seg_step in segments:
            if self.metrics is not None:
                with self.metrics.phase("archive_build"):
                    infos: List[ShardInfo] = engine.run(
                        reducer, seg_start, seg_end, seg_step, phase="archive_build"
                    )
            else:
                infos = engine.run(
                    reducer, seg_start, seg_end, seg_step, phase="archive_build"
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
        recent = self.build(RECENT_DAILY_START, STUDY_END, 1)
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

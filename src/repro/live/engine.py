"""The follow engine: live, crash-safe, day-by-day archive extension.

:class:`FollowEngine` drives the simulated clock forward on a
configurable cadence.  Each cycle ingests one new study day through
the resumable :class:`~repro.archive.ArchiveBuilder` (retrying
transient failures with bounded backoff, quarantining and re-sweeping
corrupt shards), runs the change detectors over the day-over-day
summary delta, durably appends the resulting events, and commits a
journal checkpoint ``(day, archive_digest, event_cursor)``.

The commit order is the whole crash-safety story::

    shard (atomic) → events (fsync append) → journal (atomic)

A SIGKILL between any two steps leaves either an orphan shard (adopted
by the next build), or checkpoint-less event-log tail entries
(truncated on resume and deterministically re-emitted).  Either way a
resumed run converges on the byte-identical archive digest and event
sequence of an uninterrupted one — the property the chaos tests pin.

Failures never escape :meth:`advance`: a day that cannot be ingested
within the retry budget bumps a consecutive-failure counter that walks
the degradation ladder ``following → lagging → stalled``.  The ladder,
the ingest lag, and the event cursor are mirrored into an advisory
``follow.status.json`` (excluded from the archive digest) that every
serving worker — not just the one that follows — reads for
``/healthz`` and for switching queries to stale-mode headers.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import time
from typing import Dict, List, Optional

from ..archive import ArchiveBuilder, archive_digest, shard_filename
from ..archive.manifest import Manifest
from ..archive.store import QUARANTINE_SUFFIX
from ..errors import ArchiveError, LiveError, RecoveryError
from ..faults.plan import TransientIOError, WorkerCrashed, sync_fault_metrics
from ..ioutil import atomic_write_bytes, backoff_seconds
from ..timeline import (
    DateLike,
    DayClock,
    STUDY_END,
    STUDY_START,
    as_date,
    day_index,
)
from .detect import default_detectors, run_detectors
from .events import EventLog, LiveEvent
from .journal import Checkpoint, FollowJournal

__all__ = [
    "FOLLOWING",
    "LAGGING",
    "STALLED",
    "STATUS_FILENAME",
    "FollowOptions",
    "FollowEngine",
    "read_follow_status",
]

#: Healthy: the last cycle ingested its day.
FOLLOWING = "following"
#: At least one consecutive cycle failed; still retrying.
LAGGING = "lagging"
#: ``stall_after`` consecutive cycles failed; serving goes stale-mode.
STALLED = "stalled"

#: Advisory status mirror for the serving workers.  Like the journal
#: and event log it is not ``manifest.json`` / ``*.shard``, so the
#: archive digest ignores it.
STATUS_FILENAME = "follow.status.json"


class FollowOptions:
    """Picklable knobs for a follow run (crosses the worker fork)."""

    __slots__ = (
        "start", "end", "cadence_days", "interval_seconds",
        "stall_after", "retries", "backoff",
    )

    def __init__(
        self,
        start: Optional[DateLike] = None,
        end: Optional[DateLike] = None,
        cadence_days: int = 1,
        interval_seconds: float = 0.0,
        stall_after: int = 3,
        retries: int = 3,
        backoff: float = 0.01,
    ) -> None:
        self.start = as_date(start) if start is not None else STUDY_START
        self.end = as_date(end) if end is not None else STUDY_END
        self.cadence_days = int(cadence_days)
        #: Real seconds slept between cycles (0 = as fast as possible);
        #: this is the "configurable cadence" of the simulated clock in
        #: wall time, independent of the study-day step.
        self.interval_seconds = float(interval_seconds)
        #: Consecutive failed cycles before the ladder reads "stalled".
        self.stall_after = int(stall_after)
        #: Per-day ingest/detect retry budget.
        self.retries = int(retries)
        self.backoff = float(backoff)
        if self.cadence_days < 1:
            raise LiveError(f"cadence must be >= 1 day: {self.cadence_days}")
        if self.stall_after < 1:
            raise LiveError(f"stall_after must be >= 1: {self.stall_after}")
        if self.start > self.end:
            raise LiveError(f"empty follow range: {self.start} > {self.end}")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)


class FollowEngine:
    """Extends one archive directory live, one study day at a time."""

    def __init__(
        self,
        directory: str,
        config,
        options: Optional[FollowOptions] = None,
        detectors=None,
        faults=None,
        metrics=None,
        workers: int = 1,
    ) -> None:
        self.directory = str(directory)
        self.config = config
        self.options = options or FollowOptions()
        self.detectors = (
            detectors if detectors is not None else default_detectors()
        )
        self.faults = faults
        self.metrics = metrics
        self.workers = int(workers)
        self.journal = FollowJournal(self.directory, faults=faults)
        self.log = EventLog(self.directory)
        self.clock = DayClock(self.options.start)
        self.consecutive_failures = 0
        self._builder: Optional[ArchiveBuilder] = None
        self._archive = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Where this engine sits on the degradation ladder."""
        if self.consecutive_failures >= self.options.stall_after:
            return STALLED
        if self.consecutive_failures > 0:
            return LAGGING
        return FOLLOWING

    @property
    def ingest_lag_days(self) -> int:
        """How many study days behind schedule the engine is.

        Every failed cycle is one cadence step the clock should have
        advanced but did not, so the lag is simply the consecutive
        failure count times the cadence.  A healthy engine reports 0.
        """
        return self.consecutive_failures * self.options.cadence_days

    def last_checkpoint(self) -> Optional[Checkpoint]:
        return self.journal.last()

    def next_date(self) -> Optional[_dt.date]:
        """The next study day to ingest, or ``None`` when caught up."""
        last = self.journal.last()
        if last is None:
            candidate = self.options.start
        else:
            candidate = last.date + _dt.timedelta(
                days=self.options.cadence_days
            )
        return candidate if candidate <= self.options.end else None

    @property
    def done(self) -> bool:
        """True once the follow range is fully ingested."""
        return self.next_date() is None

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def resume(self) -> Optional[Checkpoint]:
        """Recover durable state after a restart (or a SIGKILL).

        Loads the journal (dropping any torn tail), truncates the event
        log back to the last checkpoint's cursor — events past it were
        never committed and will be re-emitted identically — and parks
        the clock on the checkpoint day.  Safe to call on a fresh
        directory: everything is simply empty.
        """
        checkpoint = self.journal.last()
        cursor = checkpoint.event_cursor if checkpoint else 0
        dropped = self.log.truncate_to(cursor)
        if dropped and self.metrics is not None:
            self.metrics.record_recovery("live_events_truncated", dropped)
        if checkpoint is not None and checkpoint.day > self.clock.day:
            self.clock.advance_to(checkpoint.day)
        self._write_status()
        return checkpoint

    # ------------------------------------------------------------------
    # One follow cycle
    # ------------------------------------------------------------------

    def advance(self) -> Optional[Checkpoint]:
        """Attempt one cycle; never raises for ingest problems.

        Returns the new checkpoint on success (resetting the ladder) or
        ``None`` on failure (climbing it).  This is the method the
        server's follow loop calls — a bad day degrades service to
        stale mode, it never takes the server down.
        """
        if self.done:
            self._write_status()
            return None
        try:
            checkpoint = self.step()
        except LiveError:
            self.consecutive_failures += 1
            self._count("live_ingest_failures")
            self._write_status()
            return None
        self.consecutive_failures = 0
        self._write_status()
        return checkpoint

    def step(self) -> Optional[Checkpoint]:
        """Ingest exactly one day; raises :class:`LiveError` on failure.

        The cycle is idempotent: if the previous attempt died anywhere
        — mid-build, after the event append, before the journal write —
        re-running converges on the identical checkpoint, because the
        builder adopts or re-sweeps the day deterministically and the
        event log is first truncated back to the last durable cursor.
        """
        date = self.next_date()
        if date is None:
            return None
        key_base = date.isoformat()
        last = self.journal.last()
        base_cursor = last.event_cursor if last else 0
        dropped = self.log.truncate_to(base_cursor)
        if dropped:
            self._count("live_events_truncated_inline", dropped)

        self._ingest(date, key_base)
        archive = self._open_archive()
        findings = self._detect(archive, date, key_base)
        events = [
            LiveEvent(base_cursor + index + 1, day_index(date), kind, payload)
            for index, (kind, payload) in enumerate(findings)
        ]
        if events:
            self.log.append(events)
            self._count("live_events_emitted", len(events))

        digest = archive_digest(self.directory)
        checkpoint = Checkpoint(
            day_index(date), digest, base_cursor + len(events)
        )
        try:
            retries = self.journal.append(checkpoint)
        except RecoveryError as exc:
            raise LiveError(
                f"journal checkpoint for {date} failed: {exc}"
            ) from exc
        self._count("live_journal_fsyncs", 1 + retries)
        self._count("live_days_ingested")
        self.clock.advance_to(date)
        sync_fault_metrics(self.faults, self.metrics)
        return checkpoint

    def run(
        self,
        stop_event=None,
        max_cycles: Optional[int] = None,
    ) -> int:
        """Follow until caught up, stopped, or ``max_cycles`` spent.

        Returns the number of successful cycles.  Keeps attempting even
        while stalled (so a healed fault recovers the ladder), sleeping
        ``interval_seconds`` between cycles.
        """
        succeeded = 0
        cycles = 0
        while not self.done:
            if stop_event is not None and stop_event.is_set():
                break
            if max_cycles is not None and cycles >= max_cycles:
                break
            cycles += 1
            if self.advance() is not None:
                succeeded += 1
            if self.options.interval_seconds > 0:
                time.sleep(self.options.interval_seconds)
        self._write_status()
        return succeeded

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _count(self, name: str, count: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.record_counter(name, count)

    def _get_builder(self) -> ArchiveBuilder:
        if self._builder is None:
            self._builder = ArchiveBuilder(
                self.directory,
                self.config,
                workers=self.workers,
                metrics=self.metrics,
                faults=self.faults,
            )
        return self._builder

    def _open_archive(self):
        if self._archive is None:
            self._archive = self._get_builder().open()
        else:
            self._archive.reload()
        return self._archive

    def _ingest(self, date: _dt.date, key_base: str) -> None:
        """Build the day's shard, retrying and quarantining as needed."""
        failure: Optional[Exception] = None
        for attempt in range(self.options.retries + 1):
            key = f"{key_base}#{attempt}"
            try:
                if self.faults is not None:
                    self.faults.check("live.ingest_day", key)
                self._get_builder().build(date, date, 1)
                return
            except (TransientIOError, WorkerCrashed, RecoveryError) as exc:
                failure = exc
            except ArchiveError as exc:
                # A damaged shard (this day's or the manifest's record
                # of it) blocks the build: quarantine it aside so the
                # retry re-sweeps the day from scratch.
                if self._quarantine_shard(date):
                    self._count("live_quarantines")
                failure = exc
            if attempt >= self.options.retries:
                break
            self._count("live_ingest_retries")
            time.sleep(backoff_seconds(attempt, self.options.backoff))
        raise LiveError(f"could not ingest {date}: {failure}") from failure

    def _quarantine_shard(self, date: _dt.date) -> bool:
        """Move the day's shard aside and forget its manifest entry."""
        path = os.path.join(self.directory, shard_filename(date))
        moved = False
        if os.path.exists(path):
            os.replace(path, path + QUARANTINE_SUFFIX)
            moved = True
        try:
            manifest = Manifest.load(self.directory)
        except (OSError, ArchiveError):
            return moved
        if date in manifest.days:
            del manifest.days[date]
            manifest.save(self.directory)
        return moved

    def _detect(self, archive, date: _dt.date, key_base: str):
        """Run the detectors over the day's summary delta, with retry."""
        previous_date = date - _dt.timedelta(days=self.options.cadence_days)
        failure: Optional[Exception] = None
        for attempt in range(self.options.retries + 1):
            key = f"{key_base}#{attempt}"
            try:
                if self.faults is not None:
                    self.faults.check("live.detector", key)
                previous = None
                if previous_date in archive.manifest.days:
                    previous = archive.load_summary(previous_date)
                current = archive.load_summary(date)
                return run_detectors(self.detectors, previous, current)
            except (TransientIOError, WorkerCrashed, ArchiveError) as exc:
                failure = exc
            if attempt >= self.options.retries:
                break
            self._count("live_detector_retries")
            time.sleep(backoff_seconds(attempt, self.options.backoff))
        raise LiveError(
            f"change detection for {date} failed: {failure}"
        ) from failure

    # ------------------------------------------------------------------
    # Status mirror
    # ------------------------------------------------------------------

    def status(self) -> Dict:
        """The follow-state snapshot mirrored for the serving workers."""
        checkpoint = self.journal.last()
        return {
            "state": self.state,
            "ingest_lag_days": self.ingest_lag_days,
            "consecutive_failures": self.consecutive_failures,
            "last_day": checkpoint.day if checkpoint else None,
            "last_date": (
                checkpoint.date.isoformat() if checkpoint else None
            ),
            "event_cursor": checkpoint.event_cursor if checkpoint else 0,
            "end": self.options.end.isoformat(),
            "cadence_days": self.options.cadence_days,
            "done": self.done,
        }

    def _write_status(self) -> None:
        # Advisory and rewritten every cycle: no fault site, but still
        # atomic so readers never see a torn JSON document.
        data = json.dumps(self.status(), sort_keys=True).encode("utf-8")
        try:
            atomic_write_bytes(
                os.path.join(self.directory, STATUS_FILENAME), data
            )
        except (OSError, RecoveryError):
            pass  # status is best-effort; the journal is the truth


def read_follow_status(directory: str) -> Optional[Dict]:
    """The latest advisory follow status, or ``None`` when not following.

    Serving workers (all of them, not just the follower) call this for
    ``/healthz`` and for the stale-mode switch; a missing or torn file
    reads as "no live follow here".
    """
    path = os.path.join(str(directory), STATUS_FILENAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None

"""The sweep engine.

Longitudinal sweeps partition their date range into chunks of
measurement days; each chunk is evaluated in-process by a day reducer —
any object with ``reduce_day(snapshot)``, for the analysis sweeps
:class:`~repro.archive.kernel.SummaryReducer` — and the per-chunk
record lists are concatenated in date order.  Two properties make
chunking safe here:

* :meth:`repro.sim.world.World.sweep` derives each day's state from the
  event log deterministically, so a sweep starting mid-range yields the
  same :class:`WorldDay` views as the corresponding tail of a full
  sweep;
* outage subsampling is keyed per-date (``derive_rng(seed, "outage",
  date)``), independent of sweep position.

A run is one chunk unless the engine is given ``chunk_days``; the chunk
is the unit of retry.

The engine is **self-healing**: a chunk that fails (a transient IO
error, an injected fault from :mod:`repro.faults`) is retried with
bounded backoff under a fresh per-attempt fault key.  Chunk evaluation
is deterministic, so a retried run converges on results bit-identical
to an undisturbed one; the retries are counted in
:class:`SweepMetrics` (``chunk_retries``, alongside
``faults_injected``).
"""

from __future__ import annotations

import datetime as _dt
import time
from typing import List, Optional, Tuple

from ..errors import MeasurementError, RecoveryError
from ..faults import WorkerCrashed, sync_fault_metrics
from ..ioutil import backoff_seconds
from ..timeline import DateLike, as_date
from .fast import FastCollector
from .metrics import SweepMetrics

__all__ = ["SweepChunk", "partition_chunks", "SweepEngine"]

#: Exceptions that mean "this chunk failed, try it again".
_CHUNK_FAILURES = (WorkerCrashed, OSError)


class SweepChunk:
    """A contiguous run of measurement days on the sweep's step grid."""

    __slots__ = ("index", "start", "end", "step")

    def __init__(self, index: int, start: _dt.date, end: _dt.date, step: int) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.step = step

    @property
    def days(self) -> int:
        """Number of measurement days in the chunk."""
        return (self.end - self.start).days // self.step + 1

    def __repr__(self) -> str:
        return f"SweepChunk(#{self.index} {self.start}..{self.end} /{self.step})"


def partition_chunks(
    start: DateLike, end: DateLike, step: int, chunk_days: Optional[int] = None
) -> List[SweepChunk]:
    """Split [start, end] stepped by ``step`` into runs of ``chunk_days``.

    Chunk boundaries stay on the parent grid (every chunk start is
    ``start + k*step`` days), so the union of chunk sweeps visits exactly
    the dates the unchunked sweep would.  ``chunk_days=None`` makes the
    whole range one chunk.
    """
    if step < 1:
        raise MeasurementError(f"sweep step must be >= 1 day: {step}")
    if chunk_days is not None and chunk_days < 1:
        raise MeasurementError(f"chunk size must be >= 1 day: {chunk_days}")
    start_date, end_date = as_date(start), as_date(end)
    if start_date > end_date:
        raise MeasurementError(
            f"sweep start {start_date} is after its end {end_date}"
        )
    total_days = (end_date - start_date).days // step + 1
    if chunk_days is None:
        chunk_days = total_days
    chunks: List[SweepChunk] = []
    for first in range(0, total_days, chunk_days):
        last = min(first + chunk_days, total_days) - 1
        chunks.append(
            SweepChunk(
                len(chunks),
                start_date + _dt.timedelta(days=first * step),
                start_date + _dt.timedelta(days=last * step),
                step,
            )
        )
    return chunks


class SweepEngine:
    """Partitions sweeps into chunks and reduces them in date order."""

    def __init__(
        self,
        collector: FastCollector,
        chunk_days: Optional[int] = None,
        metrics: Optional[SweepMetrics] = None,
        faults=None,
        max_chunk_retries: int = 3,
        retry_backoff: float = 0.02,
    ) -> None:
        self._collector = collector
        self.chunk_days = chunk_days
        self.metrics = metrics
        self.faults = faults
        self.max_chunk_retries = int(max_chunk_retries)
        self.retry_backoff = float(retry_backoff)

    def _run_chunk(self, reducer, chunk: SweepChunk) -> Tuple[list, int]:
        """One chunk's records plus the retries they took.

        The fault key carries the chunk's start date plus the attempt
        number, so a retried chunk re-rolls its fault decision instead
        of deterministically dying forever.
        """
        for attempt in range(self.max_chunk_retries + 1):
            try:
                if self.faults is not None:
                    self.faults.check(
                        "sweep.chunk", f"{chunk.start.isoformat()}#{attempt}"
                    )
                return [
                    reducer.reduce_day(snapshot)
                    for snapshot in self._collector.sweep(
                        chunk.start, chunk.end, chunk.step
                    )
                ], attempt
            except _CHUNK_FAILURES as exc:
                if attempt >= self.max_chunk_retries:
                    raise RecoveryError(
                        f"chunk {chunk!r} failed {attempt + 1} times: {exc}"
                    ) from exc
                time.sleep(backoff_seconds(attempt, self.retry_backoff))
        raise AssertionError("unreachable")  # pragma: no cover

    def run(
        self,
        reducer,
        start: DateLike,
        end: DateLike,
        step: int = 1,
        phase: Optional[str] = None,
    ) -> list:
        """Reduce every ``step``-th day in [start, end], in date order.

        A ``step`` larger than the whole range is valid and measures
        exactly the start day; an inverted range or non-positive step is
        rejected up front rather than surfacing as confusing chunking.
        """
        chunks = partition_chunks(start, end, step, self.chunk_days)
        records: list = []
        chunk_retries = 0
        for chunk in chunks:
            chunk_records, retries = self._run_chunk(reducer, chunk)
            records.extend(chunk_records)
            chunk_retries += retries
        if self.metrics is not None:
            if chunk_retries:
                self.metrics.record_recovery("chunk_retries", chunk_retries)
            sync_fault_metrics(self.faults, self.metrics)
            if phase is not None:
                stat = self.metrics.get_phase(phase)
                if stat is not None:
                    stat.snapshots += len(records)
                    stat.notes["chunks"] = len(chunks)
        return records

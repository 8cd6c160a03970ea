"""The parallel sweep engine.

Longitudinal sweeps partition their date range into chunks of
measurement days; each chunk is evaluated by a day reducer — any
picklable object with ``reduce_day(snapshot)``, for the analysis sweeps
:class:`~repro.archive.kernel.SummaryReducer` — either in-process or
across worker processes, and the per-chunk record lists are
concatenated in date order.  Two properties make chunking safe here:

* :meth:`repro.sim.world.World.sweep` derives each day's state from the
  event log deterministically, so a sweep starting mid-range yields the
  same :class:`WorldDay` views as the corresponding tail of a full
  sweep;
* outage subsampling is keyed per-date (``derive_rng(seed, "outage",
  date)``), independent of sweep position.

Worker processes rebuild the world from the scenario config (world
construction is deterministic by seed), so nothing larger than the
config, the reducer, and the day records ever crosses the process
boundary.  When no config is available — the caller supplied a
ready-made world — the engine falls back to the deterministic
in-process executor, which runs the identical chunked code path
serially, keeping results bit-identical.

The engine is **self-healing**: a chunk that fails (a crashed worker,
a transient IO error, an injected fault from :mod:`repro.faults`) is
retried with bounded backoff under a fresh per-attempt fault key, a
broken process pool is recreated, and after repeated pool failures the
engine degrades to the serial executor for whatever chunks are still
missing.  Chunk evaluation is deterministic, so every recovery path
converges on results bit-identical to an undisturbed run; the recovery
actions themselves are counted in :class:`SweepMetrics`
(``chunk_retries``, ``pool_failures``, ``degraded_to_serial``,
``faults_injected``).
"""

from __future__ import annotations

import datetime as _dt
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MeasurementError, RecoveryError
from ..faults import TransientIOError, WorkerCrashed, mark_worker_process, sync_fault_metrics
from ..ioutil import backoff_seconds
from ..timeline import DateLike, as_date
from .fast import FastCollector
from .metrics import SweepMetrics

__all__ = [
    "SweepChunk",
    "partition_chunks",
    "SerialChunkExecutor",
    "ProcessChunkExecutor",
    "ExecutorBroken",
    "SweepEngine",
]

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
    start: DateLike, end: DateLike, step: int, chunk_days: int
) -> List[SweepChunk]:
    """Split [start, end] stepped by ``step`` into runs of ``chunk_days``.

    Chunk boundaries stay on the parent grid (every chunk start is
    ``start + k*step`` days), so the union of chunk sweeps visits exactly
    the dates the unchunked sweep would.
    """
    if step < 1:
        raise MeasurementError(f"sweep step must be >= 1 day: {step}")
    if chunk_days < 1:
        raise MeasurementError(f"chunk size must be >= 1 day: {chunk_days}")
    start_date, end_date = as_date(start), as_date(end)
    if start_date > end_date:
        raise MeasurementError(
            f"sweep start {start_date} is after its end {end_date}"
        )
    total_days = (end_date - start_date).days // step + 1
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


def _reduce_chunk(
    collector: FastCollector, reducer, chunk: SweepChunk, faults=None, attempt: int = 0
) -> list:
    """Run one chunk through the reducer (shared by both executors).

    The fault key carries the chunk's start date plus the attempt
    number, so a retried chunk re-rolls its fault decision instead of
    deterministically dying forever.
    """
    if faults is not None:
        faults.check("sweep.chunk", f"{chunk.start.isoformat()}#{attempt}")
    return [
        reducer.reduce_day(snapshot)
        for snapshot in collector.sweep(chunk.start, chunk.end, chunk.step)
    ]


class SerialChunkExecutor:
    """Deterministic in-process executor (the parallel fallback).

    Runs the exact chunked code path the process executor runs, just
    sequentially against one collector — so tests can exercise chunk
    semantics without forking, and worlds that exist only in this
    process can still be swept through the engine.  Failed chunks are
    retried in place with bounded backoff.
    """

    def __init__(
        self,
        collector: FastCollector,
        faults=None,
        max_chunk_retries: int = 3,
        retry_backoff: float = 0.02,
    ) -> None:
        self._collector = collector
        self._faults = faults
        self.max_chunk_retries = int(max_chunk_retries)
        self.retry_backoff = float(retry_backoff)
        #: Chunk retries performed (for SweepMetrics).
        self.chunk_retries = 0

    @property
    def kind(self) -> str:
        """Executor label for instrumentation."""
        return "serial"

    def _run_chunk(self, reducer, chunk: SweepChunk) -> list:
        for attempt in range(self.max_chunk_retries + 1):
            try:
                return _reduce_chunk(
                    self._collector, reducer, chunk, self._faults, attempt
                )
            except _CHUNK_FAILURES as exc:
                if attempt >= self.max_chunk_retries:
                    raise RecoveryError(
                        f"chunk {chunk!r} failed {attempt + 1} times: {exc}"
                    ) from exc
                self.chunk_retries += 1
                time.sleep(backoff_seconds(attempt, self.retry_backoff))
        raise AssertionError("unreachable")  # pragma: no cover

    def map_chunks(self, reducer, chunks: Sequence[SweepChunk]) -> List[list]:
        """Per-chunk record lists, in chunk order."""
        return [self._run_chunk(reducer, chunk) for chunk in chunks]


# ----------------------------------------------------------------------
# Process pool executor
# ----------------------------------------------------------------------

#: Per-worker-process collector cache: scenario key -> FastCollector.
_WORKER_COLLECTOR: Tuple[Optional[tuple], Optional[FastCollector]] = (None, None)


def _scenario_key(config) -> tuple:
    key = (
        config.scale,
        config.seed,
        config.geo_lag_days,
        config.netnod_mode,
        config.sanctioned_domain_count,
    )
    # Counterfactual scenarios extend the key with their identity; the
    # baseline key stays the historical 5-tuple so pre-scenario-engine
    # archives keep matching (getattr: old pickled configs lack these).
    scenario_id = getattr(config, "scenario_id", "baseline")
    if scenario_id != "baseline":
        key += (scenario_id, getattr(config, "spec_digest", None))
    return key


def _worker_collector(config, collector_args) -> FastCollector:
    global _WORKER_COLLECTOR
    outage_dates, outage_coverage, seed = collector_args
    key = (_scenario_key(config), collector_args)
    cached_key, cached = _WORKER_COLLECTOR
    if cached_key == key and cached is not None:
        return cached
    # build_world never builds the PKI bundle, and sweeps never read it,
    # so workers skip that cost regardless of config.with_pki.
    from ..sim.conflict import build_world

    collector = FastCollector(
        build_world(config),
        outage_dates=outage_dates,
        outage_coverage=outage_coverage,
        seed=seed,
    )
    _WORKER_COLLECTOR = (key, collector)
    return collector


def _reduce_chunk_in_worker(config, collector_args, reducer, chunk, faults, attempt):
    mark_worker_process()
    collector = _worker_collector(config, collector_args)
    return chunk.index, _reduce_chunk(collector, reducer, chunk, faults, attempt)


class ExecutorBroken(RuntimeError):
    """The process pool failed repeatedly; carries the finished chunks."""

    def __init__(self, completed: Dict[int, list]) -> None:
        super().__init__(f"process pool broke with {len(completed)} chunks done")
        self.completed = completed


class ProcessChunkExecutor:
    """Evaluates chunks across a :class:`ProcessPoolExecutor`.

    Each worker rebuilds the (deterministic) world from the scenario
    config on first use and caches it for the rest of its life.  A
    chunk whose evaluation fails is resubmitted (with its attempt
    number bumped, so injected faults re-roll); a broken pool is
    recreated, and after ``max_pool_failures`` breakages the executor
    raises :class:`ExecutorBroken` carrying everything that did finish
    so the engine can degrade to the serial path for the remainder.
    """

    def __init__(
        self,
        config,
        collector: FastCollector,
        workers: int,
        faults=None,
        max_chunk_retries: int = 3,
        retry_backoff: float = 0.02,
        max_pool_failures: int = 2,
    ) -> None:
        if workers < 2:
            raise MeasurementError(f"process executor needs >= 2 workers: {workers}")
        self._config = config
        self._collector_args = (
            collector.outage_dates,
            collector.outage_coverage,
            collector.seed,
        )
        self.workers = workers
        self._faults = faults
        self.max_chunk_retries = int(max_chunk_retries)
        self.retry_backoff = float(retry_backoff)
        self.max_pool_failures = int(max_pool_failures)
        #: Recovery counters (for SweepMetrics).
        self.chunk_retries = 0
        self.pool_failures = 0

    @property
    def kind(self) -> str:
        """Executor label for instrumentation."""
        return "process"

    def map_chunks(self, reducer, chunks: Sequence[SweepChunk]) -> List[list]:
        """Per-chunk record lists, merged back into chunk order."""
        completed: Dict[int, list] = {}
        attempts: Dict[int, int] = {chunk.index: 0 for chunk in chunks}
        rounds = 0
        while True:
            pending = [chunk for chunk in chunks if chunk.index not in completed]
            if not pending:
                break
            try:
                if self._faults is not None:
                    self._faults.check("sweep.pool", f"round#{rounds}")
                self._run_round(reducer, pending, completed, attempts)
            except (BrokenProcessPool, WorkerCrashed) as exc:
                self.pool_failures += 1
                if self.pool_failures > self.max_pool_failures:
                    raise ExecutorBroken(completed) from exc
                time.sleep(backoff_seconds(self.pool_failures - 1, self.retry_backoff))
            rounds += 1
        return [completed[chunk.index] for chunk in chunks]

    def _run_round(
        self,
        reducer,
        pending: Sequence[SweepChunk],
        completed: Dict[int, list],
        attempts: Dict[int, int],
    ) -> None:
        """One pool lifetime: submit every pending chunk, harvest results.

        Per-chunk failures are retried inside the round (resubmission);
        pool-level breakage propagates to :meth:`map_chunks`, which
        decides between a fresh pool and :class:`ExecutorBroken`.
        """
        with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
            waiting = list(pending)
            while waiting:
                futures = {
                    pool.submit(
                        _reduce_chunk_in_worker,
                        self._config,
                        self._collector_args,
                        reducer,
                        chunk,
                        self._faults,
                        attempts[chunk.index],
                    ): chunk
                    for chunk in waiting
                }
                waiting = []
                for future, chunk in futures.items():
                    try:
                        index, records = future.result()
                    except BrokenProcessPool:
                        raise
                    except _CHUNK_FAILURES as exc:
                        attempts[chunk.index] += 1
                        if attempts[chunk.index] > self.max_chunk_retries:
                            raise RecoveryError(
                                f"chunk {chunk!r} failed "
                                f"{attempts[chunk.index]} times: {exc}"
                            ) from exc
                        self.chunk_retries += 1
                        waiting.append(chunk)
                    else:
                        completed[index] = records
                if waiting:
                    time.sleep(
                        backoff_seconds(
                            max(attempts[c.index] for c in waiting) - 1,
                            self.retry_backoff,
                        )
                    )


class SweepEngine:
    """Partitions sweeps into chunks and merges per-chunk day records."""

    def __init__(
        self,
        collector: FastCollector,
        config=None,
        workers: int = 1,
        chunk_days: Optional[int] = None,
        metrics: Optional[SweepMetrics] = None,
        faults=None,
        max_chunk_retries: int = 3,
        retry_backoff: float = 0.02,
        max_pool_failures: int = 2,
    ) -> None:
        if workers < 1:
            raise MeasurementError(f"workers must be >= 1: {workers}")
        self._collector = collector
        self._config = config
        self.workers = int(workers)
        self.chunk_days = chunk_days
        self.metrics = metrics
        self.faults = faults
        self.max_chunk_retries = int(max_chunk_retries)
        self.retry_backoff = float(retry_backoff)
        self.max_pool_failures = int(max_pool_failures)

    @property
    def parallel_capable(self) -> bool:
        """True when worker processes can rebuild the world from config."""
        return self._config is not None

    def _chunk_days_for(self, total_days: int) -> int:
        if self.chunk_days is not None:
            return self.chunk_days
        if self.workers <= 1:
            return total_days
        # Four chunks per worker balances load without drowning the pool
        # in per-chunk overhead.
        return max(1, -(-total_days // (self.workers * 4)))

    def _serial_executor(self) -> SerialChunkExecutor:
        return SerialChunkExecutor(
            self._collector,
            faults=self.faults,
            max_chunk_retries=self.max_chunk_retries,
            retry_backoff=self.retry_backoff,
        )

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
        if step < 1:
            raise MeasurementError(f"sweep step must be >= 1 day: {step}")
        start_date, end_date = as_date(start), as_date(end)
        if start_date > end_date:
            raise MeasurementError(
                f"sweep start {start_date} is after its end {end_date}"
            )
        total_days = (end_date - start_date).days // step + 1
        chunks = partition_chunks(
            start_date, end_date, step, self._chunk_days_for(total_days)
        )
        degraded = False
        chunk_retries = 0
        pool_failures = 0
        if self.workers > 1 and self.parallel_capable and len(chunks) > 1:
            executor = ProcessChunkExecutor(
                self._config,
                self._collector,
                self.workers,
                faults=self.faults,
                max_chunk_retries=self.max_chunk_retries,
                retry_backoff=self.retry_backoff,
                max_pool_failures=self.max_pool_failures,
            )
            try:
                per_chunk = executor.map_chunks(reducer, chunks)
            except ExecutorBroken as broken:
                # The pool is unusable; finish the missing chunks with
                # the deterministic in-process path.  Chunk evaluation
                # is pure, so the merged result is bit-identical to
                # what the pool would have produced.
                degraded = True
                completed = dict(broken.completed)
                serial = self._serial_executor()
                for chunk in chunks:
                    if chunk.index not in completed:
                        completed[chunk.index] = serial._run_chunk(reducer, chunk)
                per_chunk = [completed[chunk.index] for chunk in chunks]
                chunk_retries += serial.chunk_retries
            chunk_retries += executor.chunk_retries
            pool_failures = executor.pool_failures
        else:
            executor = self._serial_executor()
            per_chunk = executor.map_chunks(reducer, chunks)
            chunk_retries += executor.chunk_retries
        records = [record for chunk_records in per_chunk for record in chunk_records]
        if self.metrics is not None:
            if chunk_retries:
                self.metrics.record_recovery("chunk_retries", chunk_retries)
            if pool_failures:
                self.metrics.record_recovery("pool_failures", pool_failures)
            if degraded:
                self.metrics.record_recovery("degraded_to_serial", 1)
            sync_fault_metrics(self.faults, self.metrics)
        if self.metrics is not None and phase is not None:
            stat = self.metrics.get_phase(phase)
            if stat is not None:
                stat.snapshots += len(records)
                stat.notes["executor"] = (
                    "process->serial" if degraded else executor.kind
                )
                stat.notes["chunks"] = len(chunks)
                stat.notes["workers"] = (
                    self.workers if executor.kind == "process" and not degraded else 1
                )
        return records

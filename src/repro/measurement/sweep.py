"""The sweep engine.

A longitudinal sweep visits every ``step``-th day of its date range in
one pass; each day is evaluated in-process by a day reducer — any
object with ``reduce_day(snapshot)``, for the analysis sweeps
:class:`~repro.archive.kernel.SummaryReducer` — and the records come
back in date order.  A reducer that also has ``reduce_run(snapshots)``
is handed the whole run's snapshot iterator instead, and returns the
run's records in date order itself; the archive reducer uses it to
overlap consecutive days' shard writes.  :meth:`repro.sim.world.World.sweep` derives each
day's state from the event log deterministically, and outage
subsampling is keyed per-date (``derive_rng(seed, "outage", date)``),
so a sweep starting mid-range yields the same views as the
corresponding tail of a full sweep.

The engine is **self-healing**: a run that fails (a transient IO
error, an injected fault from :mod:`repro.faults`) is retried with
bounded backoff under a fresh per-attempt fault key.  Evaluation is
deterministic, so a retried run converges on results bit-identical
to an undisturbed one; the retries are counted in
:class:`SweepMetrics` (``chunk_retries``, alongside
``faults_injected``).
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import MeasurementError, RecoveryError
from ..faults import WorkerCrashed, sync_fault_metrics
from ..ioutil import backoff_seconds
from ..timeline import DateLike, as_date
from .fast import FastCollector
from .metrics import SweepMetrics

__all__ = ["SweepEngine"]

#: Exceptions that mean "this run failed, try it again".
_RUN_FAILURES = (WorkerCrashed, OSError)


class SweepEngine:
    """Reduces every ``step``-th day of a range in date order."""

    def __init__(
        self,
        collector: FastCollector,
        metrics: Optional[SweepMetrics] = None,
        faults=None,
        max_chunk_retries: int = 3,
        retry_backoff: float = 0.02,
    ) -> None:
        self._collector = collector
        self.metrics = metrics
        self.faults = faults
        self.max_chunk_retries = int(max_chunk_retries)
        self.retry_backoff = float(retry_backoff)

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
        rejected up front.  The ``sweep.chunk`` fault key carries the
        start date plus the attempt number, so a retried run re-rolls
        its fault decision instead of deterministically dying forever.
        """
        if step < 1:
            raise MeasurementError(f"sweep step must be >= 1 day: {step}")
        start_date, end_date = as_date(start), as_date(end)
        if start_date > end_date:
            raise MeasurementError(
                f"sweep start {start_date} is after its end {end_date}"
            )
        for attempt in range(self.max_chunk_retries + 1):
            try:
                if self.faults is not None:
                    self.faults.check(
                        "sweep.chunk", f"{start_date.isoformat()}#{attempt}"
                    )
                snapshots = self._collector.sweep(start_date, end_date, step)
                reduce_run = getattr(reducer, "reduce_run", None)
                if reduce_run is not None:
                    records = reduce_run(snapshots)
                else:
                    records = [reducer.reduce_day(snapshot) for snapshot in snapshots]
                break
            except _RUN_FAILURES as exc:
                if attempt >= self.max_chunk_retries:
                    raise RecoveryError(
                        f"sweep {start_date}..{end_date} /{step} failed "
                        f"{attempt + 1} times: {exc}"
                    ) from exc
                time.sleep(backoff_seconds(attempt, self.retry_backoff))
        if self.metrics is not None:
            if attempt:
                self.metrics.record_recovery("chunk_retries", attempt)
            sync_fault_metrics(self.faults, self.metrics)
            if phase is not None:
                stat = self.metrics.get_phase(phase)
                if stat is not None:
                    stat.snapshots += len(records)
        return records

"""Sweep instrumentation: per-phase wall time, throughput, cache stats.

A :class:`SweepMetrics` registry hangs off the experiment context.  Each
expensive phase (world build, full sweep, recent sweep, CT monitor, scan
sweeps) runs under ``with metrics.phase("name") as stat:`` and records
how many snapshots it processed; caches report hit/miss counters through
:meth:`SweepMetrics.record_cache`.  ``repro run <id> --profile`` renders
the registry, and ``--profile-json PATH`` writes its structured
:meth:`summary` dict.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["PhaseStat", "SweepMetrics", "current_rss_bytes"]


def current_rss_bytes() -> int:
    """This process's resident set size in bytes (0 if unmeasurable).

    Reads ``/proc/self/statm`` (resident pages x page size — the live
    value, so repeated samples track a build's actual footprint over
    time).  Platforms without procfs fall back to
    ``resource.getrusage`` peak RSS; without either the hook degrades
    to 0 and memory accounting simply reports nothing.  No third-party
    dependency (psutil) is required.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(peak) * (1024 if sys.platform.startswith("linux") else 1)
    except Exception:
        return 0


class PhaseStat:
    """Accumulated timing for one named phase."""

    __slots__ = ("name", "wall_seconds", "snapshots", "runs", "notes")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Total wall-clock time spent in this phase, seconds.
        self.wall_seconds = 0.0
        #: Snapshots (measurement days) processed by this phase.
        self.snapshots = 0
        #: Times the phase ran (cache hits skip reruns).
        self.runs = 0
        #: Free-form annotations (bytes written or read, ...).
        self.notes: Dict[str, object] = {}

    @property
    def snapshots_per_second(self) -> float:
        """Throughput; 0.0 when the phase did no timed work."""
        if self.wall_seconds <= 0.0 or self.snapshots == 0:
            return 0.0
        return self.snapshots / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for structured reporting."""
        payload: Dict[str, object] = {
            "wall_seconds": round(self.wall_seconds, 6),
            "snapshots": self.snapshots,
            "snapshots_per_second": round(self.snapshots_per_second, 2),
            "runs": self.runs,
        }
        payload.update(self.notes)
        return payload

    def __repr__(self) -> str:
        return (
            f"PhaseStat({self.name!r}, {self.wall_seconds:.3f}s, "
            f"{self.snapshots} snapshots)"
        )


class SweepMetrics:
    """Registry of phase timings and cache hit/miss counters."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStat] = {}
        self._caches: Dict[str, Dict[str, int]] = {}
        self._recovery: Dict[str, int] = {}
        self._endpoints: Dict[str, Dict[str, object]] = {}
        self._counters: Dict[str, int] = {}
        self._peak_rss = 0
        self._rss_samples = 0
        # The service records from executor threads while /metrics
        # renders on the event loop; every mutation and every snapshot
        # holds this one lock, so a summary is a single consistent
        # copy, never a mix of per-field reads mid-update.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStat]:
        """Time one phase run; wall time accumulates across runs."""
        with self._lock:
            stat = self._phases.setdefault(name, PhaseStat(name))
            stat.runs += 1
        started = time.perf_counter()
        try:
            yield stat
        finally:
            with self._lock:
                stat.wall_seconds += time.perf_counter() - started

    def get_phase(self, name: str) -> Optional[PhaseStat]:
        """The stat for ``name`` if that phase ever ran."""
        return self._phases.get(name)

    def phases(self) -> List[PhaseStat]:
        """All phase stats in first-run order."""
        return list(self._phases.values())

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------

    def record_cache(self, name: str, hits: int, misses: int) -> None:
        """Accumulate hit/miss counters for one named cache."""
        with self._lock:
            counters = self._caches.setdefault(
                name, {"hits": 0, "misses": 0}
            )
            counters["hits"] += int(hits)
            counters["misses"] += int(misses)

    def cache_hit_rate(self, name: str) -> float:
        """Hits per lookup in [0, 1] (0.0 for unknown/idle caches)."""
        with self._lock:
            counters = self._caches.get(name)
            if not counters:
                return 0.0
            total = counters["hits"] + counters["misses"]
            return counters["hits"] / total if total else 0.0

    # ------------------------------------------------------------------
    # Service endpoints
    # ------------------------------------------------------------------

    def record_endpoint(
        self, name: str, seconds: float, status: int
    ) -> None:
        """Accumulate one served request for a named endpoint.

        Tracks request count, error count (HTTP status >= 400), total
        and maximum latency; ``/metrics`` and ``--profile-json`` expose
        the aggregate under ``endpoints``.
        """
        with self._lock:
            stat = self._endpoints.setdefault(
                name,
                {"requests": 0, "errors": 0,
                 "wall_seconds": 0.0, "max_seconds": 0.0},
            )
            stat["requests"] = int(stat["requests"]) + 1
            if int(status) >= 400:
                stat["errors"] = int(stat["errors"]) + 1
            stat["wall_seconds"] = float(stat["wall_seconds"]) + float(seconds)
            stat["max_seconds"] = max(
                float(stat["max_seconds"]), float(seconds)
            )

    # ------------------------------------------------------------------
    # Free-form counters (coalesced requests, backpressure rejections...)
    # ------------------------------------------------------------------

    def record_counter(self, name: str, count: int = 1) -> None:
        """Bump one named monotonic counter.

        The serving layer's standard names: ``requests_total``,
        ``requests_coalesced``, ``requests_rejected``,
        ``requests_stale`` (degraded-mode answers from the result LRU),
        ``deadline_exceeded`` (requests answered 504), and the breaker
        transition counters ``breaker_opened`` / ``breaker_half_open``
        / ``breaker_closed``.
        """
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(count)

    def counter(self, name: str) -> int:
        """The named counter's value (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    def sample_rss(self) -> int:
        """Sample this process's RSS; the maximum seen is retained.

        The streaming build path calls this at chunk boundaries, so
        ``peak_rss_bytes`` reflects the build's real high-water mark
        rather than a single end-of-run reading.  Returns the sampled
        value (0 when the platform offers no measurement).
        """
        rss = current_rss_bytes()
        with self._lock:
            self._rss_samples += 1
            if rss > self._peak_rss:
                self._peak_rss = rss
        return rss

    @property
    def peak_rss_bytes(self) -> int:
        """Highest RSS sampled so far (0 if never sampled/unmeasurable)."""
        with self._lock:
            return self._peak_rss

    # ------------------------------------------------------------------
    # Recovery counters
    # ------------------------------------------------------------------

    def record_recovery(self, name: str, count: int = 1) -> None:
        """Count a self-healing action (retry, quarantine, rebuild...).

        The standard counter names are ``faults_injected``,
        ``chunk_retries``, ``shards_quarantined``, and
        ``shards_rebuilt``.
        """
        with self._lock:
            self._recovery[name] = self._recovery.get(name, 0) + int(count)

    def recovery_count(self, name: str) -> int:
        """How often the named recovery action ran (0 if never)."""
        with self._lock:
            return self._recovery.get(name, 0)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Structured dict: per-phase timing, cache hit rates, recovery.

        Taken as one consistent copy under the registry lock, so a
        snapshot rendered while requests are in flight never mixes a
        counter's old value with a sibling's new one.
        """
        with self._lock:
            return {
                "phases": {
                    name: stat.as_dict() for name, stat in self._phases.items()
                },
                "caches": {
                    name: {
                        "hits": counters["hits"],
                        "misses": counters["misses"],
                        "hit_rate": round(self.cache_hit_rate(name), 4),
                    }
                    for name, counters in self._caches.items()
                },
                "recovery": dict(self._recovery),
                "endpoints": {
                    name: {
                        "requests": stat["requests"],
                        "errors": stat["errors"],
                        "wall_seconds": round(float(stat["wall_seconds"]), 6),
                        "max_seconds": round(float(stat["max_seconds"]), 6),
                        "mean_seconds": round(
                            float(stat["wall_seconds"]) / int(stat["requests"]), 6
                        )
                        if stat["requests"]
                        else 0.0,
                    }
                    for name, stat in self._endpoints.items()
                },
                "counters": dict(self._counters),
                "memory": {
                    "peak_rss_bytes": self._peak_rss,
                    "rss_samples": self._rss_samples,
                },
            }

    def render(self) -> str:
        """Human-readable profile (what ``--profile`` prints)."""
        lines = ["profile:"]
        if not any(
            (
                self._phases,
                self._caches,
                self._recovery,
                self._endpoints,
                self._counters,
                self._peak_rss,
            )
        ):
            lines.append("  (no instrumented work ran)")
            return "\n".join(lines)
        for stat in self._phases.values():
            rate = (
                f"{stat.snapshots_per_second:,.1f} snapshots/s"
                if stat.snapshots
                else "-"
            )
            notes = "".join(
                f" {key}={value}" for key, value in sorted(stat.notes.items())
            )
            lines.append(
                f"  {stat.name:<16} {stat.wall_seconds:8.3f}s  "
                f"{stat.snapshots:>6} days  {rate}{notes}"
            )
        for name, counters in self._caches.items():
            total = counters["hits"] + counters["misses"]
            lines.append(
                f"  cache {name:<10} {counters['hits']}/{total} hits "
                f"({100.0 * self.cache_hit_rate(name):.1f}%)"
            )
        for name, count in self._recovery.items():
            lines.append(f"  recovery {name:<20} {count}")
        for name, stat in self._endpoints.items():
            mean = (
                float(stat["wall_seconds"]) / int(stat["requests"])
                if stat["requests"]
                else 0.0
            )
            lines.append(
                f"  endpoint {name:<20} {stat['requests']:>5} req  "
                f"{stat['errors']} err  mean {1000.0 * mean:.1f}ms  "
                f"max {1000.0 * float(stat['max_seconds']):.1f}ms"
            )
        for name, count in self._counters.items():
            lines.append(f"  counter {name:<21} {count}")
        if self._peak_rss:
            lines.append(
                f"  memory peak_rss          "
                f"{self._peak_rss / (1024 * 1024):,.1f} MiB "
                f"({self._rss_samples} samples)"
            )
        return "\n".join(lines)

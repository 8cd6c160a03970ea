"""Bench: query service throughput, cold vs warm.

Starts a real ``QueryService`` over an archive-backed context, runs one
query mix twice — first against an empty result cache (every query
computes), then repeated once warm (every query is an LRU hit) — and
records queries/sec plus p50/p95/p99 request latencies for both in
``benchmarks/output/service_speedup.json``.  The warm path must be at
least 5x the cold path: that margin is the point of serving from a
result cache instead of recomputing per request.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import threading
import time
import urllib.request

from _util import environment

from repro.archive import ArchiveBuilder
from repro.experiments import ExperimentContext
from repro.loadgen import percentile
from repro.service import QueryService
from repro.sim import ConflictScenarioConfig

#: Service benches replay a small archive: serving cost, not sweep cost,
#: is what's under measurement.
SERVICE_SCALE = 2500.0
CADENCE = 60

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: The measured mix: one of each expensive query class.
QUERY_MIX = [
    "/v1/headline",
    "/v1/series/ns_composition",
    "/v1/series/asn_shares?start=2022-03-01&end=2022-03-15",
    "/v1/records/2022-03-04?tld=ru&limit=20",
    "/v1/records/2022-03-04?tld=%D1%80%D1%84&limit=20",
    "/v1/experiments/headline",
]


def _latency_ms(latencies: list[float]) -> dict:
    ordered = sorted(value * 1000.0 for value in latencies)
    return {
        "p50": round(percentile(ordered, 50.0), 3),
        "p95": round(percentile(ordered, 95.0), 3),
        "p99": round(percentile(ordered, 99.0), 3),
    }


class _Server:
    """Background-thread harness around one QueryService."""

    def __init__(self, context: ExperimentContext) -> None:
        self._context = context
        self._ready = threading.Event()
        self.port = None

    def __enter__(self) -> "_Server":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(60)
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        service = QueryService(self._context)
        await service.start("127.0.0.1", 0)
        self.port = service.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await service.shutdown()

    def fetch(self, path: str) -> bytes:
        return _fetch(self.port, path)


def _fetch(port: int, path: str) -> bytes:
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=120) as response:
        assert response.status == 200
        return response.read()


def _build_archive(tmp_path) -> tuple[ConflictScenarioConfig, str]:
    config = ConflictScenarioConfig(scale=SERVICE_SCALE, with_pki=False)
    directory = str(tmp_path / "std")
    ArchiveBuilder(directory, config).build_standard(CADENCE)
    return config, directory


def test_bench_service_cold_vs_warm(benchmark, tmp_path):
    config, directory = _build_archive(tmp_path)
    context = ExperimentContext(
        config=config, cadence_days=CADENCE, archive=directory
    )

    cold_latencies: list[float] = []
    warm_latencies: list[float] = []

    def timed_mix(sink: list[float]) -> list[bytes]:
        bodies = []
        for path in QUERY_MIX:
            started = time.perf_counter()
            bodies.append(server.fetch(path))
            sink.append(time.perf_counter() - started)
        return bodies

    with _Server(context) as server:
        started = time.perf_counter()
        cold_bodies = timed_mix(cold_latencies)
        cold_seconds = time.perf_counter() - started

        warm_bodies = benchmark.pedantic(
            lambda: timed_mix(warm_latencies), rounds=10, iterations=1
        )
        warm_seconds = max(benchmark.stats.stats.mean, 1e-9)

    # Warm answers are the cached cold answers, byte for byte.
    assert warm_bodies == cold_bodies

    cold_qps = len(QUERY_MIX) / cold_seconds
    warm_qps = len(QUERY_MIX) / warm_seconds
    speedup = warm_qps / cold_qps
    record = {
        "scale": SERVICE_SCALE,
        "cadence_days": CADENCE,
        "queries_in_mix": len(QUERY_MIX),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "cold_queries_per_second": round(cold_qps, 1),
        "warm_queries_per_second": round(warm_qps, 1),
        "cold_latency_ms": _latency_ms(cold_latencies),
        "warm_latency_ms": _latency_ms(warm_latencies),
        "warm_over_cold_speedup": round(speedup, 1),
        "env": environment(),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "service_speedup.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert speedup >= 5.0, (
        f"warm cache served only {speedup:.1f}x cold throughput"
    )

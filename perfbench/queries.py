"""The ``query-scan`` workload.

One run:

1. make sure the served archive exists (built once per source tree by
   ``repro archive build`` — the standard plan at 1:250, default
   scenario seed — and cached under ``perfbench/_work``);
2. set-up, three times: launch a single-process ``repro serve``, wait
   for ``/healthz``, replay the warm-up requests (lazy world build and
   sweep caches).  The last server stays up for the timed phase;
3. fixed-rate phase: ``seconds`` of open-loop Poisson arrivals at the
   offered rate, timed from the due time; throughput is the
   requests served per second the server was busy (at least one
   request in flight);
4. correctness: every 200 body carries the query envelope, and a
   seed-drawn sample of served bodies equals the offline
   ``context.api.query_json(spec)`` answer byte for byte.

With tracing on, step 3 runs once untraced and once against a server
started through :mod:`perfbench.serve_traced`; the difference in p50 is
the tracing overhead.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from perfbench import driver, plans
from perfbench.common import (
    CONNECTIONS, DEFAULT_SEED, ROOT, WORK, Pace, child_env, median,
    percentile, reference_loop, run_python, source_digest, vm_hwm_mib,
)

WORKLOAD = "query-scan"
#: Offered rate (qps) of the fixed-rate phase, well under the
#: single-process server's capacity on 2 shared cores (~15 qps), so
#: that a slow spell of the host delays requests instead of tipping the
#: queue into unbounded growth.
RATE = 3.0
#: Tail percentile: over the 120 requests of a 40-s run, p90 (twelve
#: beyond), since p95 rests on too few requests to hold steady.
TAIL_Q = 90.0
SETUPS = 3
#: Reference loops run before and after each set-up and timed phase.
PACE_LOOPS = 3


def served_archive() -> str:
    """Path of the archive ``query-scan`` serves (built on first use)."""
    os.makedirs(WORK, exist_ok=True)
    name = f"served-{source_digest()[:16]}"
    path = os.path.join(WORK, name)
    if os.path.isfile(os.path.join(path, "manifest.json")):
        return path
    for stale in os.listdir(WORK):
        if stale.startswith("served-"):
            shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)
    building = f"{path}.tmp-{os.getpid()}"
    run_python(
        ["-m", "repro", "--scenario", "baseline", "--seed", str(DEFAULT_SEED),
         "--no-pki", "archive", "build", building],
        timeout=800,
    )
    os.rename(building, path)
    return path


class Server:
    """One ``repro serve --processes 1`` subprocess on a free port.

    Untraced, it starts through :mod:`perfbench.serve_paced`, so
    :meth:`reference_loop` times the reference loop inside the server
    process; traced, through :mod:`perfbench.serve_traced`, and the loop
    runs here instead.
    """

    def __init__(self, archive: str, trace_path: Optional[str] = None) -> None:
        cli = ["--scenario", "baseline", "--no-pki", "serve", "--archive",
               archive, "--port", "0", "--processes", "1"]
        if trace_path is None:
            command = [sys.executable,
                       os.path.join("perfbench", "serve_paced.py")] + cli
        else:
            command = [sys.executable,
                       os.path.join("perfbench", "serve_traced.py"),
                       trace_path] + cli
        self._log = open(os.path.join(WORK, "server.log"), "ab")
        self._pace: Optional[socket.socket] = None
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        banner = self.process.stdout.readline()
        try:
            if banner.startswith("pace on "):
                self._pace = socket.create_connection(
                    ("127.0.0.1", int(banner.split()[2])), timeout=30
                )
                banner = self.process.stdout.readline()
            if not banner.startswith("serving on http://"):
                raise RuntimeError(f"server did not start (banner {banner!r})")
        except BaseException:
            self.stop()
            raise
        self.port = int(banner.strip().rsplit(":", 1)[1])

    def get(self, path: str):
        return driver.fetch("127.0.0.1", self.port, path)

    def reference_loop(self) -> float:
        """Seconds one reference loop takes in the server process now."""
        if self._pace is None:
            return reference_loop()
        self._pace.sendall(b"x")
        reply = b""
        while len(reply) < 8:
            chunk = self._pace.recv(8 - len(reply))
            if not chunk:
                raise RuntimeError("the server's pace responder closed")
            reply += chunk
        return struct.unpack("<d", reply)[0]

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.process.pid)

    def stop(self) -> None:
        if self._pace is not None:
            self._pace.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def set_up(archive: str, pace: Pace, trace_path: Optional[str] = None):
    """Launch → ``/healthz`` → warm-up; ``(server, paced seconds)``."""
    pace.sample(PACE_LOOPS)
    started = time.perf_counter()
    server = Server(archive, trace_path)
    try:
        for path in ["/healthz"] + plans.warmup_paths():
            status, _ = server.get(path)
            if status != 200:
                raise RuntimeError(f"warm-up {path} answered {status}")
        ended = time.perf_counter()
        pace.sample(PACE_LOOPS)
    except BaseException:
        server.stop()
        raise
    return server, pace.normalise(ended - started, started, ended)


class Checker:
    """Validates bodies as they arrive and keeps the ones to compare."""

    def __init__(self) -> None:
        self.seen_ok: Dict[bytes, bool] = {}
        self.bodies: Dict[str, bytes] = {}
        self.failed = 0
        self.attempted = 0

    def __call__(self, sample: driver.Sample, path: str) -> None:
        self.attempted += 1
        if sample.status != 200:
            self.failed += 1
            return
        ok = self.seen_ok.get(sample.body)
        if ok is None:
            ok = self.seen_ok[sample.body] = driver.envelope_ok(sample.body)
        if not ok:
            self.failed += 1
            return
        self.bodies.setdefault(path, sample.body)


def spec_for_path(path: str):
    """The :class:`QuerySpec` the service routes a GET path to."""
    from repro.api.spec import QuerySpec

    parts = urlsplit(path)
    segments = [part for part in unquote(parts.path).split("/") if part][1:]
    params = dict(parse_qsl(parts.query, keep_blank_values=True))
    if segments[0] == "series":
        return QuerySpec("series", series=segments[1],
                         start=params.get("start"), end=params.get("end"))
    if segments[0] == "records":
        return QuerySpec("records", date=segments[1], tld=params.get("tld"),
                         offset=params.get("offset"), limit=params.get("limit"))
    return None


def sample_paths(seed: int, served: List[str]) -> List[str]:
    """Served keys to re-answer offline: seed-drawn, both ``.рф`` spellings."""
    from repro.rng import derive_rng

    candidates = sorted(served)
    rng = derive_rng(seed, "perfbench", "sample")
    chosen = [candidates[int(i)] for i in rng.permutation(len(candidates))[:8]]
    for marker in ("tld=%D1%80%D1%84", "tld=xn--p1ai", "/series/"):
        if not any(marker in path for path in chosen):
            chosen += [path for path in candidates if marker in path][:1]
    return chosen


def offline_mismatches(archive: str, bodies: Dict[str, bytes],
                       paths: List[str]) -> List[str]:
    """Sampled paths whose served body differs from the offline answer."""
    from repro.experiments.context import ExperimentContext
    from repro.scenario import ScenarioSpec

    spec = ScenarioSpec.resolve("baseline").with_config(with_pki=False)
    context = ExperimentContext(scenario=spec, archive=archive)
    return [
        path for path in paths
        if context.api.query_json(spec_for_path(path)).encode("utf-8")
        != bodies[path]
    ]


def offered_paths(seed: int, seconds: float):
    """``(arrivals, paths)`` of one run's fixed-rate phase."""
    arrivals = plans.poisson_arrivals(plans.SCHEDULE_SEED, RATE, seconds)
    return arrivals, plans.scan_paths(seed, len(arrivals))


def fixed_rate(server: Server, seed: int, arrivals, paths,
               checker: Checker) -> Dict[str, float]:
    """The open-loop phase at the offered rate.

    The driver has the server run a reference loop in quiet gaps; each
    latency is paced by the loops around its due and done times, and
    each busy period (from a send into an idle server to the moment it
    is idle again) by the loops around it.
    """
    pace = Pace(loop=server.reference_loop)
    pace.sample(PACE_LOOPS)
    began = time.perf_counter()
    samples = driver.run_open_loop(
        "127.0.0.1", server.port, arrivals, paths, CONNECTIONS,
        on_done=checker, on_idle=pace.sample,
    )
    ended = time.perf_counter()
    pace.sample(PACE_LOOPS)
    raw = sorted(sample.latency for sample in samples)
    latencies = [
        pace.normalise(sample.latency, sample.due, sample.done)
        if sample.status == 200 else float("inf")
        for sample in samples
    ]
    busy: List[List[float]] = []
    for sample in sorted(samples, key=lambda sample: sample.sent):
        if busy and sample.sent <= busy[-1][1]:
            busy[-1][1] = max(busy[-1][1], sample.done)
        else:
            busy.append([sample.sent, sample.done])
    served = sum(sample.status == 200 for sample in samples)
    lateness = sorted(sample.late for sample in samples)
    with open(os.path.join(WORK, f"samples-{WORKLOAD}-{seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({
            "due_s": [round(sample.due - samples[0].due, 6) for sample in samples],
            "latency_ms": [round(value * 1000.0, 4) for value in latencies],
            "raw_ms": [round(sample.latency * 1000.0, 4) for sample in samples],
            "done_s": [round(sample.done - samples[0].due, 6)
                       for sample in samples],
            "pace": [(round(start - samples[0].due, 6), seconds)
                     for start, seconds in pace.samples],
            "paths": list(paths),
        }, handle)
    return {
        "requests": len(samples),
        "pace_samples": len(pace.samples),
        "raw_p50_ms": percentile(raw, 50.0) * 1000.0,
        "raw_tail_ms": percentile(raw, TAIL_Q) * 1000.0,
        "p50_ms": percentile(sorted(latencies), 50.0) * 1000.0,
        "tail_ms": percentile(sorted(latencies), TAIL_Q) * 1000.0,
        "raw_throughput_per_s": served / sum(end - start for start, end in busy),
        "throughput_per_s": served / sum(
            pace.normalise(end - start, start, end) for start, end in busy
        ),
        "lateness_p99_ms": percentile(lateness, 99.0) * 1000.0,
        "lateness_max_ms": lateness[-1] * 1000.0,
        "window": (began, ended),
    }


def archive_bytes_per_domain_day(archive: str) -> float:
    from repro.archive import MeasurementArchive

    records = sum(
        entry.records
        for entry in MeasurementArchive(archive).manifest.days.values()
    )
    size = sum(
        os.path.getsize(os.path.join(archive, name))
        for name in os.listdir(archive)
    )
    return size / records


def run(seed: int, seconds: float, trace: bool) -> Dict:
    """One run; returns the report (metrics, counts, details)."""
    archive = served_archive()
    checker = Checker()
    details: Dict[str, object] = {"offered_rate_qps": RATE}
    if not trace:
        pace = Pace()
        setups = []
        for index in range(SETUPS):
            server, took = set_up(archive, pace)
            setups.append(took)
            if index < SETUPS - 1:
                server.stop()
        arrivals, paths = offered_paths(seed, seconds)
        try:
            phase = fixed_rate(server, seed, arrivals, paths, checker)
            peak = server.peak_rss_mib()
        finally:
            server.stop()
        metrics = {
            "setup_s": (median(setups), "s"),
            "p50_ms": (phase["p50_ms"], "ms"),
            "tail_ms": (phase["tail_ms"], "ms"),
            "throughput_per_s": (phase["throughput_per_s"], "1/s"),
            "peak_rss_mib": (peak, "MiB"),
            "bytes_per_domain_day": (archive_bytes_per_domain_day(archive), "B"),
        }
        details.update(setups_s=setups, fixed=phase)
        layers = None
    else:
        from perfbench import layers as layer_lib
        from perfbench.tracing import load_spans

        arrivals, paths = offered_paths(seed, seconds)
        server, _ = set_up(archive, Pace())
        try:
            plain = fixed_rate(server, seed, arrivals, paths, checker)
        finally:
            server.stop()
        trace_path = os.path.join(WORK, f"trace-{WORKLOAD}-{seed}.json")
        server, _ = set_up(archive, Pace(), trace_path)
        try:
            traced = fixed_rate(server, seed, arrivals, paths, checker)
        finally:
            server.stop()
        spans, _ = load_spans(trace_path)
        layers = layer_lib.server_layers(spans, traced["window"])
        layers["loadgen.lateness_p99_ms"] = plain["lateness_p99_ms"]
        layers["loadgen.lateness_max_ms"] = plain["lateness_max_ms"]
        # Unpaced: the traced server runs no reference loop of its own.
        layers["tracing.overhead_pct"] = 100.0 * (
            traced["raw_p50_ms"] - plain["raw_p50_ms"]
        ) / plain["raw_p50_ms"]
        details.update(untraced=plain, traced=traced, trace=trace_path)
        metrics = None

    sampled = sample_paths(seed, list(checker.bodies))
    mismatches = offline_mismatches(archive, checker.bodies, sampled)
    problems = [f"served body differs from offline answer: {path}"
                for path in mismatches]
    if checker.failed:
        problems.append(f"{checker.failed} failed or malformed responses")
    if trace and layers["trace.server_layer_sum_pct"] < 95.0:
        problems.append(
            "server layers cover only "
            f"{layers['trace.server_layer_sum_pct']:.1f}% of connection time"
        )
    details.update(sampled=sampled, problems=problems)
    return {
        "attempted": checker.attempted,
        "failed": checker.failed + len(mismatches),
        "correct": not problems,
        "metrics": metrics,
        "layers": layers,
        "details": details,
    }

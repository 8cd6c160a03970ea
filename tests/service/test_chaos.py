"""Service-layer chaos suite (``pytest -m chaos``).

Drives the *real* ``repro serve`` subprocess with deterministic
service-layer fault injection and asserts the resilience contract
end-to-end:

* no request hangs past its deadline plus a small grace;
* the circuit breaker walks closed → open → half-open → closed and the
  walk is visible through ``/healthz`` and ``/metrics``;
* stale responses are byte-identical to the previously-fresh response
  for the same spec;
* the resilient client's retry budget survives injected
  response-write aborts;
* ``repro query --url`` prints bytes identical to the offline CLI.

The fault seed comes from ``REPRO_CHAOS_SEED`` (CI runs the suite
under two seeds); every assertion here must hold for any seed, because
the targeted faults use ``--fault-rate 1.0`` with ``--fault-match`` —
the seed only shuffles the injected corruption/stall details.

Excluded from the tier-1 run via the ``chaos`` marker; the session
archive fixture is shared with the rest of the service suite.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.client import ClientError, QueryClient

from .conftest import SERVICE_CADENCE, SERVICE_SCALE

pytestmark = pytest.mark.chaos

#: CI sets this to run the suite under distinct deterministic seeds.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "101"))

#: Base CLI matching the session archive's scenario.
SCENARIO_FLAGS = [
    "--scale", str(int(SERVICE_SCALE)),
    "--no-pki",
    "--cadence", str(SERVICE_CADENCE),
]


@contextmanager
def serve(service_archive, *, faults=None, extra=()):
    """A real ``repro serve`` subprocess bound to a free port."""
    argv = [sys.executable, "-m", "repro", *SCENARIO_FLAGS]
    if faults is not None:
        argv += ["--fault-seed", str(CHAOS_SEED), "--fault-rate", "1.0"]
    argv += [
        "serve", "--port", "0", "--archive", service_archive,
        "--processes", "1",
        *(faults or ()), *extra,
    ]
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.path.join(root, "src"), env.get("PYTHONPATH"))
        if part
    )
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, (
            f"no serving announcement (exit={process.poll()}): {line!r} "
            f"{process.stderr.read() if process.poll() is not None else ''}"
        )
        yield int(match.group(1))
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


def client_for(port: int, **kwargs) -> QueryClient:
    kwargs.setdefault("seed", CHAOS_SEED)
    kwargs.setdefault("timeout", 30.0)
    return QueryClient(f"http://127.0.0.1:{port}", **kwargs)


RECORDS_SPEC_A = {"kind": "records", "date": "2022-03-04", "limit": 1}
RECORDS_SPEC_B = {"kind": "records", "date": "2022-03-04", "limit": 2}


class TestBreakerLifecycle:
    def test_closed_open_half_open_closed(self, service_archive):
        # Archive reads for 2022-03-04 fail with injected IO errors
        # (not retried in the serving path), so two distinct queries for
        # that day open the breaker; everything else stays healthy for
        # priming, stale serving, and the recovery probe.
        faults = ["--fault-match", "2022-03-04", "--fault-stall-ms", "10"]
        extra = [
            "--breaker-threshold", "2",
            "--breaker-cooldown", "3",
            "--breaker-window", "60",
        ]
        with serve(service_archive, faults=faults, extra=extra) as port:
            client = client_for(port)
            assert client.wait_ready()["status"] == "ready"

            # Prime the cache with a healthy query.
            fresh = client.query({"kind": "headline"})
            assert fresh.status == 200 and not fresh.stale

            # Two classified failures open the breaker.  The injected
            # response-write aborts may eat the 500 envelope on the
            # wire; the server-side failure accounting is what matters.
            probe_client = client_for(port, retries=0)
            for spec in (RECORDS_SPEC_A, RECORDS_SPEC_B):
                try:
                    response = probe_client.query(spec)
                    assert response.status == 500
                except ClientError:
                    pass  # response write aborted mid-flight

            health = client.healthz().json()
            assert health["status"] == "degraded"
            assert health["breaker"] == "open"

            # Degraded mode: the cached headline is served stale and
            # byte-identical; an uncached query is refused with
            # Retry-After rather than computed.
            stale = probe_client.query({"kind": "headline"})
            assert stale.status == 200
            assert stale.stale
            assert stale.body == fresh.body
            refused = probe_client.query(
                {"kind": "records", "date": "2022-03-01", "limit": 1}
            )
            assert refused.status == 503
            assert refused.retry_after is not None

            # Cooldown elapses; the next healthy query is the half-open
            # probe and closes the breaker.
            time.sleep(3.2)
            recovered = client.query({"kind": "catalog"})
            assert recovered.status == 200 and not recovered.stale
            health = client.healthz().json()
            assert health["status"] == "ready"
            assert health["breaker"] == "closed"

            metrics = client.metrics().json()
            breaker = metrics["service"]["breaker"]
            assert breaker["state"] == "closed"
            assert breaker["opened_total"] >= 1
            assert breaker["half_open_total"] >= 1
            assert breaker["closed_total"] >= 1
            counters = metrics["metrics"]["counters"]
            assert counters["breaker_opened"] >= 1
            assert counters["breaker_closed"] >= 1
            assert counters["requests_stale"] >= 1
            assert counters["breaker_rejected"] >= 1
            recovery = metrics["metrics"].get("recovery", {})
            assert recovery.get("faults_injected", 0) >= 1


class TestDeadlines:
    def test_no_request_hangs_past_deadline_plus_grace(self, service_archive):
        # Every headline computation stalls for 2s; a 300 ms deadline
        # must answer 504 long before the stall finishes.
        faults = ["--fault-match", '"kind":"headline"', "--fault-stall-ms", "2000"]
        with serve(service_archive, faults=faults) as port:
            client = client_for(port, retries=0, deadline_ms=300)
            client.wait_ready()
            started = time.monotonic()
            response = client.query({"kind": "headline"})
            elapsed = time.monotonic() - started
            assert response.status == 504
            assert elapsed < 1.5, f"request hung for {elapsed:.2f}s"
            payload = response.json()
            assert "deadline" in payload["error"]["message"]

            counters = client_for(port).metrics().json()["metrics"]["counters"]
            assert counters["deadline_exceeded"] >= 1

            # The same query under a generous budget absorbs the stall
            # and completes: the stall delays, it does not break.
            patient = client_for(port, retries=0, deadline_ms=30_000)
            response = patient.query({"kind": "headline"})
            assert response.status == 200

    def test_unaffected_queries_are_fast_while_stalls_target_one_spec(
        self, service_archive
    ):
        faults = ["--fault-match", '"kind":"headline"', "--fault-stall-ms", "2000"]
        with serve(service_archive, faults=faults) as port:
            client = client_for(port, retries=0, deadline_ms=5_000)
            client.wait_ready()
            started = time.monotonic()
            response = client.query({"kind": "catalog"})
            assert response.status == 200
            assert time.monotonic() - started < 2.0


class TestClientSurvivesWriteAborts:
    def test_retry_budget_covers_injected_response_aborts(
        self, service_archive
    ):
        # The first two responses on /v1/query abort mid-write
        # (max_injections=2); the client's retry budget must ride
        # through both and land the third attempt.
        faults = ["--fault-match", "/v1/query", "--fault-stall-ms", "10"]
        with serve(service_archive, faults=faults) as port:
            client = client_for(port, retries=3)
            client.wait_ready()
            response = client.query({"kind": "catalog"})
            assert response.status == 200
            assert client.last_attempts == 3

            metrics = client_for(port).metrics().json()
            counters = metrics["metrics"]["counters"]
            assert counters["responses_aborted"] == 2


class TestProfileArtifact:
    def test_serve_writes_profile_json_on_shutdown(
        self, service_archive, tmp_path
    ):
        # CI points REPRO_CHAOS_PROFILE at the artifact path it uploads;
        # locally the file lands in tmp_path.
        target = os.environ.get("REPRO_CHAOS_PROFILE") or str(
            tmp_path / "chaos-profile.json"
        )
        faults = ["--fault-match", '"kind":"headline"', "--fault-stall-ms", "100"]
        with serve(
            service_archive, faults=faults, extra=["--profile-json", target]
        ) as port:
            client = client_for(port)
            client.wait_ready()
            assert client.query({"kind": "headline"}).status == 200
            assert client.metrics().status == 200
        # The serve context sent SIGTERM and waited: the graceful exit
        # path must have flushed the metrics summary to disk.
        with open(target, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["counters"]["requests_total"] >= 1
        assert payload.get("recovery", {}).get("faults_injected", 0) >= 1


class TestRemoteCliEquivalence:
    SPECS = [
        {"kind": "headline"},
        {"kind": "catalog"},
        {"kind": "records", "date": "2022-03-04", "tld": "рф", "limit": 5},
        {"kind": "records", "date": "2022-03-04", "tld": "xn--p1ai", "limit": 5},
    ]

    def _cli(self, argv):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if part
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, env=env, timeout=600,
        )

    def test_query_url_bytes_match_offline(self, service_archive):
        with serve(service_archive) as port:
            client_for(port).wait_ready()
            for spec in self.SPECS:
                offline = self._cli(
                    [*SCENARIO_FLAGS, "query", json.dumps(spec),
                     "--archive", service_archive]
                )
                remote = self._cli(
                    ["query", json.dumps(spec),
                     "--url", f"http://127.0.0.1:{port}"]
                )
                assert offline.returncode == 0, offline.stderr
                assert remote.returncode == 0, remote.stderr
                assert offline.stdout == remote.stdout, spec

    def test_remote_stale_bytes_match_remote_fresh(self, service_archive):
        # Open the breaker after priming, then compare the CLI's
        # remote-stale bytes against its remote-fresh bytes.
        faults = ["--fault-match", "2022-03-04", "--fault-stall-ms", "10"]
        extra = ["--breaker-threshold", "2", "--breaker-cooldown", "600"]
        with serve(service_archive, faults=faults, extra=extra) as port:
            client = client_for(port)
            client.wait_ready()
            url = f"http://127.0.0.1:{port}"
            fresh = self._cli(["query", '{"kind": "headline"}', "--url", url])
            assert fresh.returncode == 0, fresh.stderr

            probe = client_for(port, retries=0)
            for spec in (RECORDS_SPEC_A, RECORDS_SPEC_B):
                try:
                    probe.query(spec)
                except ClientError:
                    pass
            assert client.healthz().json()["breaker"] == "open"

            stale = self._cli(["query", '{"kind": "headline"}', "--url", url])
            assert stale.returncode == 0, stale.stderr
            assert stale.stdout == fresh.stdout
            assert b"stale" in stale.stderr

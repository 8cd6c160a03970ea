"""The live feed over HTTP: /v1/events, SSE, healthz ladder, stale mode.

Tier-1 tests serve a previously-followed archive (the session fixture);
the fault-driven stale-mode and torn-frame tests are marked ``faults``.
"""

from __future__ import annotations

import http.client
import json
import shutil

import pytest

from repro.client import QueryClient
from repro.experiments import ExperimentContext
from repro.faults import CRASH, IO_ERROR, FaultPlan, FaultSpec
from repro.live import GAP_EVENT, EventLog, FollowOptions, SseParser

from tests.service.conftest import ServiceThread

from .conftest import SEED_DAY, sensitive_detectors

CADENCE = 90


def live_context(live_config, archive, faults=None) -> ExperimentContext:
    return ExperimentContext(
        config=live_config, cadence_days=CADENCE, archive=archive,
        faults=faults,
    )


def client_for(service: ServiceThread, **kwargs) -> QueryClient:
    return QueryClient(f"127.0.0.1:{service.port}", timeout=30.0, **kwargs)


class TestEventsEndpoint:
    def test_paging(self, followed_archive, live_config):
        total = EventLog(followed_archive).cursor()
        assert total >= 2
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            status, _, body = svc.get("/v1/events?since=0&limit=1")
            assert status == 200
            page = json.loads(body)
            assert [event["seq"] for event in page["events"]] == [1]
            assert page["more"] is True and page["next"] == 1

            status, _, body = svc.get(f"/v1/events?since={page['next']}")
            rest = json.loads(body)
            assert [event["seq"] for event in rest["events"]] == list(
                range(2, total + 1)
            )
            assert rest["more"] is False
            assert rest["follow"]["done"] is True

    def test_validation(self, followed_archive, live_config):
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            assert svc.get("/v1/events?since=-1")[0] == 400
            assert svc.get("/v1/events?limit=0")[0] == 400
            assert svc.get("/v1/events?since=nope")[0] == 400

    def test_healthz_reports_followed_state(
        self, followed_archive, live_config
    ):
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            payload = json.loads(svc.get("/healthz")[2])
            assert payload["follow"] == "following"
            assert payload["ingest_lag_days"] == 0
            assert payload["follow_detail"]["done"] is True

    def test_metrics_carry_follow_state(self, followed_archive, live_config):
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            payload = json.loads(svc.get("/metrics")[2])
            assert payload["service"]["follow"]["done"] is True


class TestSseStream:
    def test_stream_replays_and_ends_when_done(
        self, followed_archive, live_config
    ):
        total = EventLog(followed_archive).cursor()
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            frames = list(client_for(svc).follow_events())
        assert [frame.seq for frame in frames] == list(range(1, total + 1))
        assert all(frame.event != GAP_EVENT for frame in frames)
        payloads = [frame.json() for frame in frames]
        assert payloads == [
            event.to_dict() for event in EventLog(followed_archive).load()
        ]

    def test_limit_closes_stream(self, followed_archive, live_config):
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            frames = list(client_for(svc).follow_events(limit=2))
        assert [frame.seq for frame in frames] == [1, 2]

    def test_bad_limit_rejected(self, followed_archive, live_config):
        # A bad limit is refused up front, like a bad since: neither a
        # non-integer nor a non-positive limit may open the stream.
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            for limit in ("abc", "0", "-2"):
                status, _, body = svc.get(f"/v1/events/stream?limit={limit}")
                assert status == 400, limit
                assert b"limit" in body

    def test_last_event_id_beats_since(self, followed_archive, live_config):
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            connection = http.client.HTTPConnection(
                "127.0.0.1", svc.port, timeout=30
            )
            try:
                connection.request(
                    "GET",
                    "/v1/events/stream?since=0&limit=1",
                    headers={"Last-Event-ID": "2"},
                )
                raw = connection.getresponse()
                assert raw.status == 200
                assert raw.getheader("Content-Type", "").startswith(
                    "text/event-stream"
                )
                parser = SseParser()
                frames = []
                while not frames:
                    chunk = raw.read(256)
                    assert chunk, "stream closed before a frame arrived"
                    frames.extend(parser.feed(chunk))
            finally:
                connection.close()
        # since=0 asked for seq 1; the resume header must win.
        assert frames[0].seq == 3

    def test_reconnect_across_restart_is_gapless(
        self, followed_archive, live_config
    ):
        """Last-Event-ID replay across a *real* server restart."""
        total = EventLog(followed_archive).cursor()
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            first = list(client_for(svc).follow_events(limit=2))
        last_seen = first[-1].seq
        with ServiceThread(live_context(live_config, followed_archive)) as svc:
            rest = list(client_for(svc).follow_events(since=last_seen))
        seqs = [frame.seq for frame in first + rest]
        assert seqs == list(range(1, total + 1))  # gapless, no duplicates

    def test_slow_consumer_gets_explicit_gap(
        self, followed_archive, live_config
    ):
        """A backlog past the bounded buffer drops oldest-first with a
        gap marker; the dropped events stay fetchable via /v1/events."""
        total = EventLog(followed_archive).cursor()
        context = live_context(live_config, followed_archive)
        with ServiceThread(context, sse_buffer=1) as svc:
            frames = list(client_for(svc).follow_events())
            status, _, body = svc.get("/v1/events")
        assert frames[0].event == GAP_EVENT
        gap = frames[0].json()
        assert gap == {
            "dropped": total - 1, "from": 1, "to": total - 1,
        }
        assert [frame.seq for frame in frames] == [total - 1, total]
        # Durability beats the drop: the full log is still a page away.
        assert len(json.loads(body)["events"]) == total


@pytest.mark.faults
class TestTornFrames:
    def test_client_resumes_past_torn_frames(
        self, followed_archive, live_config
    ):
        """Injected live.sse_write faults tear frames mid-write; the
        client reconnects with Last-Event-ID and the assembled feed is
        gapless and duplicate-free."""
        total = EventLog(followed_archive).cursor()
        plan = FaultPlan(
            5,
            {"live.sse_write": FaultSpec(IO_ERROR, 1.0, max_injections=2)},
        )
        context = live_context(live_config, followed_archive, faults=plan)
        with ServiceThread(context) as svc:
            client = client_for(svc)
            frames = [
                frame for frame in client.follow_events()
                if frame.event != GAP_EVENT
            ]
            metrics = json.loads(svc.get("/metrics")[2])
        assert [frame.seq for frame in frames] == list(range(1, total + 1))
        assert client.last_attempts >= 3  # two torn streams, then clean
        counters = metrics["metrics"]["counters"]
        assert counters.get("live_sse_aborted", 0) == 2


@pytest.mark.faults
class TestStaleModeLadder:
    def test_stalled_follow_serves_stale_not_errors(
        self, tmp_path, followed_archive, live_config
    ):
        """Every ingest cycle fails: healthz walks the ladder to
        ``stalled``, queries keep answering 200 with stale markers, and
        there is no 5xx storm."""
        directory = str(tmp_path / "stalling")
        shutil.copytree(followed_archive, directory)
        plan = FaultPlan(3, {"live.ingest_day": FaultSpec(CRASH, 1.0)})
        context = live_context(live_config, directory, faults=plan)
        options = FollowOptions(
            start=SEED_DAY, end="2022-03-26", stall_after=2, retries=0,
            backoff=0.001,
        )
        with ServiceThread(
            context,
            follow=options,
            follow_detectors=sensitive_detectors(),
        ) as svc:
            client = client_for(svc)
            seen_states = set()
            deadline = 30.0
            import time as _time

            stop = _time.monotonic() + deadline
            while _time.monotonic() < stop:
                payload = client.healthz().json()
                seen_states.add(payload["follow"])
                if payload["follow"] == "stalled":
                    break
                _time.sleep(0.05)
            assert "stalled" in seen_states
            assert payload["ingest_lag_days"] >= options.stall_after

            spec = json.dumps(
                {"kind": "records", "date": SEED_DAY, "limit": 3}
            ).encode()
            statuses = []
            stale_seen = 0
            for _ in range(10):
                response = client.request(
                    "POST", "/v1/query", body=spec, idempotent=True
                )
                statuses.append(response.status)
                if response.stale:
                    stale_seen += 1
            assert all(status == 200 for status in statuses)
            assert stale_seen == 10

"""The benchmark's own tests: plan purity, cache guards, tracing, driver.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import datetime as _dt
import http.server
import json
import threading

import pytest

from perfbench import driver, plans
from perfbench.queries import RATE, offered_paths, spec_for_path
from perfbench.tracing import Tracer, load_spans

SECONDS = 20.0


def test_plan_is_pure_in_the_seed():
    first = offered_paths(7, SECONDS)
    assert offered_paths(7, SECONDS) == first
    other = offered_paths(8, SECONDS)
    # The seed picks the keys; the schedule is the same for every seed.
    assert other[0] == first[0]
    assert other[1] != first[1]


@pytest.mark.parametrize("seed", [1, 2, 20220224])
def test_offered_count_and_gaps_are_fixed(seed):
    arrivals = plans.poisson_arrivals(seed, RATE, SECONDS)
    assert len(arrivals) == round(RATE * SECONDS)
    assert arrivals == sorted(arrivals)
    assert 0.0 <= arrivals[0] and arrivals[-1] < SECONDS
    other = plans.poisson_arrivals(seed + 1, RATE, SECONDS)
    assert other != arrivals

    def gaps(plan):
        edges = [0.0] + plan + [SECONDS]
        return sorted(b - a for a, b in zip(edges, edges[1:]))

    assert gaps(other) == pytest.approx(gaps(arrivals))


def _records_days(paths):
    return [
        path.split("/")[3].split("?")[0]
        for path in paths if path.startswith("/v1/records/")
    ]


@pytest.mark.parametrize("seed", [1, 2, 20220224])
def test_scan_plan_cannot_turn_into_a_cache_hit_workload(seed):
    from repro.archive.store import _DEFAULT_CACHE_SHARDS
    from repro.service.server import DEFAULT_CACHE_RESULTS

    assert plans.scan_key_space() > 10 * DEFAULT_CACHE_RESULTS
    assert plans.SCAN_DAYS > _DEFAULT_CACHE_SHARDS
    _, paths = offered_paths(seed, SECONDS)
    # Every key of a run is new to the result LRU ...
    assert len(set(paths)) == len(paths)
    # ... and no day recurs while it could still sit in the shard LRU.
    days = _records_days(paths)
    last_seen = {}
    for position, day in enumerate(days):
        if day in last_seen:
            assert position - last_seen[day] > _DEFAULT_CACHE_SHARDS
        last_seen[day] = position
    # A long plan's keys still outnumber the result LRU.
    many = plans.scan_paths(seed, 1000)
    assert len(set(many)) > DEFAULT_CACHE_RESULTS
    assert len(set(_records_days(many))) > _DEFAULT_CACHE_SHARDS


def test_scan_plan_covers_both_rf_spellings_and_series():
    _, paths = offered_paths(3, SECONDS)
    assert any("tld=%D1%80%D1%84" in path for path in paths)
    assert any("tld=xn--p1ai" in path for path in paths)
    assert any(path.startswith("/v1/series/ns_composition") for path in paths)
    first = _dt.date(2022, 2, 22)
    for day in _records_days(paths):
        assert 0 <= (_dt.date.fromisoformat(day) - first).days < plans.SCAN_DAYS


def test_paths_map_to_the_specs_the_service_routes():
    spec = spec_for_path("/v1/records/2022-03-04?tld=%D1%80%D1%84&offset=20&limit=20")
    assert spec.kind == "records" and spec.tld == "xn--p1ai"
    spec = spec_for_path("/v1/series/ns_composition?start=2019-01-01&end=2019-02-01")
    assert spec.kind == "series" and spec.start == "2019-01-01"


def test_spans_nest_and_export_as_chrome_trace(tmp_path):
    tracer = Tracer()

    def inner():
        return 2

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(lambda: traced_inner() + 1, "outer", root=True)
    assert traced_outer() == 3
    (inner_span, outer_span) = tracer.spans
    assert inner_span[4] == outer_span[3]
    assert inner_span[5] == outer_span[5] == outer_span[3]
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    payload = json.loads(path.read_text())
    assert {event["ph"] for event in payload["traceEvents"]} == {"X"}
    spans, _ = load_spans(str(path))
    assert [span[0] for span in spans] == ["inner", "outer"]


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = json.dumps(
            {"schema_version": 1, "kind": "x", "spec": {}, "data": self.path}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_driver_times_from_due_and_caps_connections():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        offsets = [0.0] * 10 + [0.05 * i for i in range(1, 11)]
        paths = [f"/p{i}" for i in range(len(offsets))]
        samples = driver.run_open_loop("127.0.0.1", port, offsets, paths, 2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [sample.status for sample in samples] == [200] * len(paths)
    for sample, path in zip(samples, paths):
        assert driver.envelope_ok(sample.body)
        assert sample.done >= sample.sent >= sample.due - 1e-3
    # Ten requests due at once through two connections must queue.
    assert max(sample.sent for sample in samples[:10]) > samples[0].sent

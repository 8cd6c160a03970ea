"""Behavioural tests for the query service: endpoints, coalescing,
backpressure, caching, graceful shutdown.

Every test runs over an archive-backed context, the production serving
configuration.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from .conftest import ServiceThread, fresh_context

RECORDS_PATH = "/v1/records/2022-03-04?tld=ru&limit=5"


class TestEndpoints:
    @pytest.fixture(scope="class")
    def svc(self, service_archive):
        with ServiceThread(fresh_context(service_archive)) as svc:
            yield svc

    def test_healthz(self, svc):
        status, _, body = svc.get("/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ready"
        assert payload["breaker"] == "closed"

    def test_root_lists_endpoints(self, svc):
        status, _, body = svc.get("/")
        assert status == 200
        assert "GET /v1/headline" in json.loads(body)["endpoints"]

    def test_headline(self, svc):
        status, _, body = svc.get("/v1/headline")
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "headline"
        assert "ns_full_change" in payload["data"]

    def test_experiment_catalog_and_detail(self, svc):
        status, _, body = svc.get("/v1/experiments")
        assert status == 200
        assert "fig1" in json.loads(body)["data"]["experiments"]
        status, _, body = svc.get("/v1/experiments/headline")
        assert status == 200
        assert json.loads(body)["data"]["experiment_id"] == "headline"

    def test_series_with_range(self, svc):
        status, _, body = svc.get(
            "/v1/series/ns_composition?start=2022-01-01&end=2022-06-01"
        )
        assert status == 200
        data = json.loads(body)["data"]
        assert data["series"] == "ns_composition"
        assert all("2022-01-01" <= day <= "2022-06-01" for day in data["dates"])

    def test_records_with_unicode_tld(self, svc):
        status, _, body = svc.get(
            "/v1/records/2022-03-04?tld=%D1%80%D1%84&limit=3"
        )
        assert status == 200
        data = json.loads(body)["data"]
        assert all(
            record["domain"].endswith(".xn--p1ai") for record in data["records"]
        )

    def test_post_query(self, svc):
        status, _, body = svc.post(
            "/v1/query", json.dumps({"kind": "catalog"}).encode()
        )
        assert status == 200
        assert json.loads(body)["kind"] == "catalog"

    def test_get_query_params(self, svc):
        status, _, body = svc.get("/v1/query?kind=headline")
        assert status == 200
        assert json.loads(body)["kind"] == "headline"

    def test_unknown_path_404(self, svc):
        status, _, body = svc.get("/nope")
        assert status == 404
        assert json.loads(body)["error"]["status"] == 404

    def test_bad_series_400(self, svc):
        status, _, body = svc.get("/v1/series/bogus")
        assert status == 400
        assert "unknown series" in json.loads(body)["error"]["message"]

    def test_oversized_records_page_400(self, svc):
        status, _, body = svc.get("/v1/records/2022-03-04?limit=100000000")
        assert status == 400
        assert "limit must be <= 1000" in json.loads(body)["error"]["message"]

    def test_bad_method_405(self, svc):
        status, _, _ = svc.post("/v1/headline", b"{}")
        assert status == 405

    def test_bad_post_body_400(self, svc):
        status, _, body = svc.post("/v1/query", b"[1,2]")
        assert status == 400
        assert "JSON object" in json.loads(body)["error"]["message"]

    def test_metrics_endpoint(self, svc):
        status, _, body = svc.get("/metrics")
        assert status == 200
        payload = json.loads(body)
        assert payload["metrics"]["counters"]["requests_total"] > 0
        assert "endpoints" in payload["metrics"]
        assert payload["service"]["queue_limit"] == 32


#: Every GET-only versioned route ``GET /`` lists -> a concrete path.
GET_ONLY_ROUTES = {
    "GET /v1/experiments": "/v1/experiments",
    "GET /v1/experiments/<id>": "/v1/experiments/headline",
    "GET /v1/series/<name>?start=&end=": "/v1/series/ns_composition",
    "GET /v1/headline": "/v1/headline",
    "GET /v1/records/<date>?tld=&offset=&limit=": "/v1/records/2022-03-04",
    "GET /v1/events?since=&limit=": "/v1/events",
    "GET /v1/events/stream (SSE; Last-Event-ID resume)": "/v1/events/stream",
    "GET /v2/scenarios": "/v2/scenarios",
    "GET /v2/diff?experiment=&scenario=": "/v2/diff",
}

#: (method, path, status, endpoint label, error message or None).
METHOD_CASES = [
    ("POST", path, 405, path.split("/")[1], f"POST not allowed on {path}")
    for path in GET_ONLY_ROUTES.values()
] + [
    ("PUT", "/v1/query", 405, "query", "PUT not allowed on /v1/query"),
    ("PUT", "/v2/query", 405, "query", "PUT not allowed on /v2/query"),
    ("GET", "/v1/query?kind=headline", 200, "query", None),
    ("POST", "/v1/query", 200, "query", None),
    ("GET", "/v2/query?kind=headline", 200, "query", None),
    ("POST", "/v2/query", 200, "query", None),
]


class TestMethodRouting:
    @pytest.fixture(scope="class")
    def svc(self, service_archive):
        with ServiceThread(fresh_context(service_archive)) as svc:
            yield svc

    @staticmethod
    def _endpoint_requests(svc, label):
        _, _, body = svc.get("/metrics")
        stat = json.loads(body)["metrics"]["endpoints"].get(label, {})
        return stat.get("requests", 0), stat.get("errors", 0)

    def test_root_lists_the_get_only_routes(self, svc):
        _, _, body = svc.get("/")
        listed = json.loads(body)["endpoints"]
        versioned = {
            entry for entry in listed
            if entry.startswith(("GET /v1/", "GET /v2/"))
        }
        assert versioned == set(GET_ONLY_ROUTES)
        assert {"GET|POST /v1/query", "GET|POST /v2/query"} <= set(listed)

    @pytest.mark.parametrize(
        "method, path, status, label, message", METHOD_CASES,
        ids=[f"{case[0]} {case[1]}" for case in METHOD_CASES],
    )
    def test_method_routing(self, svc, method, path, status, label, message):
        body = b'{"kind":"headline"}' if method != "GET" else None
        before = self._endpoint_requests(svc, label)
        request = urllib.request.Request(svc.url(path), data=body, method=method)
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                got, payload = response.status, response.read()
        except urllib.error.HTTPError as error:
            got, payload = error.code, error.read()
        assert got == status
        envelope = json.loads(payload)
        if message is None:
            assert envelope["kind"] == "headline"
        else:
            assert envelope["error"] == {"status": status, "message": message}
        requests, errors = self._endpoint_requests(svc, label)
        assert requests == before[0] + 1
        assert errors == before[1] + (status >= 400)


class TestCoalescing:
    def test_parallel_identical_requests_share_one_archive_read(
        self, service_archive
    ):
        context = fresh_context(service_archive)
        with ServiceThread(context) as svc:
            facade = context.api
            original = facade.query_json

            def slow_query(spec):
                # Hold the first computation open long enough for every
                # concurrent duplicate to arrive and coalesce onto it.
                time.sleep(0.5)
                return original(spec)

            facade.query_json = slow_query
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    bodies = list(
                        pool.map(
                            lambda _: svc.get(RECORDS_PATH)[2], range(8)
                        )
                    )
            finally:
                facade.query_json = original

        assert len({body for body in bodies}) == 1
        caches = context.metrics.summary()["caches"]
        # Eight concurrent identical requests, one computation =>
        # exactly one day shard left the archive.
        assert caches["archive_shards"]["misses"] == 1
        assert caches["archive_shards"]["hits"] == 0
        assert caches["query_results"]["misses"] == 1
        assert caches["query_results"]["hits"] == 7
        assert context.metrics.counter("requests_coalesced") >= 1

    def test_repeat_request_hits_result_cache(self, service_archive):
        context = fresh_context(service_archive)
        with ServiceThread(context) as svc:
            first = svc.get(RECORDS_PATH)
            second = svc.get(RECORDS_PATH)
        assert first[2] == second[2]
        assert second[1].get("X-Cache") == "hit"
        caches = context.metrics.summary()["caches"]
        assert caches["query_results"]["misses"] == 1
        assert caches["query_results"]["hits"] == 1
        assert caches["archive_shards"]["misses"] == 1

    def test_equivalent_specs_share_cache_entry(self, service_archive):
        context = fresh_context(service_archive)
        with ServiceThread(context) as svc:
            svc.get("/v1/records/2022-03-04?tld=%D1%80%D1%84&limit=3")
            status, headers, _ = svc.get(
                "/v1/records/2022-03-04?tld=xn--p1ai&limit=3"
            )
        assert status == 200
        assert headers.get("X-Cache") == "hit"


class TestBackpressure:
    def test_queue_overflow_rejected_with_retry_after(self, service_archive):
        context = fresh_context(service_archive)
        with ServiceThread(
            context, max_concurrency=1, queue_limit=1
        ) as svc:
            facade = context.api
            original = facade.query_json
            release = threading.Event()

            def blocked_query(spec):
                release.wait(30)
                return original(spec)

            facade.query_json = blocked_query
            try:
                with ThreadPoolExecutor(max_workers=2) as pool:
                    slow = pool.submit(svc.get, "/v1/query?kind=headline")
                    time.sleep(0.3)  # let the slow query occupy the queue
                    status, headers, body = svc.get("/v1/query?kind=catalog")
                    assert status == 503
                    assert headers.get("Retry-After") == "1"
                    assert "queue is full" in json.loads(body)["error"]["message"]
                    release.set()
                    assert slow.result(timeout=60)[0] == 200
            finally:
                release.set()
                facade.query_json = original
        assert context.metrics.counter("requests_rejected") == 1

    def test_introspection_unaffected_by_full_queue(self, service_archive):
        context = fresh_context(service_archive)
        with ServiceThread(
            context, max_concurrency=1, queue_limit=1
        ) as svc:
            facade = context.api
            original = facade.query_json
            release = threading.Event()
            facade.query_json = lambda spec: (release.wait(30), original(spec))[1]
            try:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    slow = pool.submit(svc.get, "/v1/query?kind=headline")
                    time.sleep(0.3)
                    assert svc.get("/healthz")[0] == 200
                    assert svc.get("/metrics")[0] == 200
                    release.set()
                    slow.result(timeout=60)
            finally:
                release.set()
                facade.query_json = original


class TestShutdown:
    def test_graceful_shutdown_closes_socket(self, service_archive):
        context = fresh_context(service_archive)
        harness = ServiceThread(context)
        with harness as svc:
            assert svc.get("/healthz")[0] == 200
            port = svc.port
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            )

    def test_options_validated(self, service_archive):
        from repro.errors import QueryError
        from repro.service import QueryService

        context = fresh_context(service_archive)
        with pytest.raises(QueryError):
            QueryService(context, max_concurrency=0)
        with pytest.raises(QueryError):
            QueryService(context, queue_limit=0)

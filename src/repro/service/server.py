"""The archive-backed query service: ``repro serve``.

An asyncio HTTP/1.1 server over one
:class:`~repro.api.facade.AnalysisFacade`.  Every endpoint — including
the convenience routes — normalises its input into a
:class:`~repro.api.spec.QuerySpec` and goes through one code path, the
same one ``repro query`` uses offline, so both emit byte-identical
canonical JSON.

Serving mechanics:

* **result cache** — canonical JSON texts in an LRU keyed by
  :meth:`QuerySpec.cache_key` (hits skip all computation);
* **request coalescing** — concurrent identical queries await a single
  in-flight computation instead of repeating it;
* **bounded concurrency + backpressure** — computations run on a
  fixed-size thread pool; once the number of distinct in-flight
  computations reaches the queue limit, new work is refused with
  ``503`` and a ``Retry-After`` header rather than queued without bound;
* **per-request deadlines** — every request carries a time budget
  (``X-Repro-Deadline-Ms`` header, else the server default); a blown
  budget answers ``504`` instead of hanging, and the in-flight
  computation exits at its next phase boundary
  (see :mod:`repro.api.deadline`);
* **circuit breaker + serve-stale degraded mode** — classified backend
  failures open a :class:`~repro.service.resilience.CircuitBreaker`;
  while it is open, queries the result LRU can answer are served
  **stale** (byte-identical body, ``X-Repro-Stale``/``Warning``
  headers) and everything else gets ``503`` + ``Retry-After``; after
  the cooldown a bounded probe either closes it or re-opens it;
* **graceful shutdown** — stop accepting, cancel computations still
  queued for the worker pool (their clients get a clean ``503``),
  drain in-flight work, then close (``repro serve`` wires this to
  SIGINT/SIGTERM).

* **live follow mode** — with ``--follow`` a follow thread runs the
  :class:`~repro.live.FollowEngine`, extending the archive day by day
  and publishing change events; ``/v1/events?since=`` pages the
  durable event log and ``/v1/events/stream`` pushes it as SSE with
  ``Last-Event-ID`` resume and bounded-buffer gap markers.  The follow
  degradation ladder (``following|lagging|stalled``) rides on
  ``/healthz`` with ``ingest_lag_days``; while stalled, queries keep
  serving with stale-mode headers.

Per-endpoint request/latency counters, breaker state, and the
context's sweep/cache metrics are exposed at ``GET /metrics``;
``GET /healthz`` reports the ``live|ready|degraded`` serving state.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future as ConcurrentFuture
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from ..api.deadline import Deadline, deadline_scope
from ..api.spec import QUERY_FIELDS, SCHEMA_VERSION, QuerySpec, jsonify
from ..errors import DeadlineExceeded, QueryError, ReproError
from ..faults import TransientIOError, WorkerCrashed, sync_fault_metrics
from ..live import (
    STALLED,
    EventLog,
    FollowEngine,
    FollowOptions,
    encode_comment,
    encode_event_frame,
    encode_gap_frame,
    read_follow_status,
)
from .http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    canonical_json,
    error_text,
    read_request,
    split_path,
)
from .resilience import (
    ADMIT_DENY,
    ADMIT_PROBE,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)

__all__ = ["QueryService", "run_service"]

#: Serving knobs: the constructor defaults (tests override some) and
#: the fixed values ``repro serve`` runs with.
DEFAULT_MAX_CONCURRENCY = 4
DEFAULT_QUEUE_LIMIT = 32
DEFAULT_CACHE_RESULTS = 128
DEFAULT_RETRY_AFTER = 1
DEFAULT_DEADLINE_MS = 30_000
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_WINDOW = 30.0
DEFAULT_BREAKER_COOLDOWN = 2.0
#: Slow-consumer bound: events buffered per SSE subscriber before the
#: server skips ahead with an explicit gap frame.
DEFAULT_SSE_BUFFER = 64
#: How often the SSE pump polls the durable event log, seconds.
DEFAULT_SSE_POLL = 0.05
#: Idle seconds between SSE keepalive comments.
DEFAULT_SSE_KEEPALIVE = 2.0
#: Most events one /v1/events page returns.
MAX_EVENT_PAGE = 500

#: The request header carrying an SSE client's resume position.
LAST_EVENT_ID_HEADER = "last-event-id"

#: The request header carrying a per-request deadline budget.
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Response headers marking a degraded-mode answer from the result LRU.
STALE_HEADERS = {
    "X-Cache": "stale",
    "X-Repro-Stale": "true",
    "Warning": '110 repro-query-service "stale response served while degraded"',
}

#: Spec fields accepted as query-string parameters on GET /vN/query.
#: /v1 deliberately omits the scenario dimension: legacy payloads have
#: no scenario field, so they keep their exact pre-v2 cache keys
#: (spec-side normalisation maps an absent scenario to baseline).
_QUERY_PARAMS = {
    "v1": tuple(field for field in QUERY_FIELDS if field != "scenario"),
    "v2": QUERY_FIELDS,
}

#: Breaker transition → metrics counter name.
_BREAKER_COUNTERS = {
    OPEN: "breaker_opened",
    HALF_OPEN: "breaker_half_open",
    CLOSED: "breaker_closed",
}


class QueryService:
    """One serving instance over an experiment context."""

    def __init__(
        self,
        context,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache_results: int = DEFAULT_CACHE_RESULTS,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_window: float = DEFAULT_BREAKER_WINDOW,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        follow: Optional[FollowOptions] = None,
        follow_detectors=None,
        sse_buffer: int = DEFAULT_SSE_BUFFER,
    ) -> None:
        if max_concurrency < 1:
            raise QueryError(f"max_concurrency must be >= 1: {max_concurrency}")
        if queue_limit < 1:
            raise QueryError(f"queue_limit must be >= 1: {queue_limit}")
        self._context = context
        self._facade = context.api
        self._metrics = context.metrics
        self._faults = getattr(context, "faults", None)
        self._queue_limit = int(queue_limit)
        self._cache_results = max(0, int(cache_results))
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            window_seconds=breaker_window,
            cooldown_seconds=breaker_cooldown,
            on_transition=self._note_breaker_transition,
        )
        self._cache: "OrderedDict[str, str]" = OrderedDict()
        self._inflight: Dict[str, asyncio.Future] = {}
        #: The executor futures behind ``_inflight``; shutdown cancels
        #: the ones a worker thread has not picked up yet.
        self._pending: Dict[str, ConcurrentFuture] = {}
        #: Per-key compute ordinals (fault-decision keys re-roll on retry).
        self._compute_counts: Dict[str, int] = {}
        #: Per-path response-write ordinals, same purpose.
        self._write_counts: Dict[str, int] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=int(max_concurrency), thread_name_prefix="repro-query"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._closing = False
        # ---- live follow mode -------------------------------------
        #: The archive directory live state (journal, event log,
        #: status) lives in; None for purely simulated contexts.
        archive = getattr(context, "archive", None)
        self._archive_dir: Optional[str] = (
            archive.directory if archive is not None else None
        )
        self._follow_options = follow
        self._follow_detectors = follow_detectors
        self._follow_engine: Optional[FollowEngine] = None
        self._follow_thread: Optional[threading.Thread] = None
        self._follow_stop = threading.Event()
        self._event_log: Optional[EventLog] = (
            EventLog(self._archive_dir) if self._archive_dir else None
        )
        self._sse_buffer = max(1, int(sse_buffer))
        #: (monotonic stamp, payload) cache for the status-file read,
        #: so stale-mode checks stay off the hot path.
        self._follow_status_cache: Tuple[float, Optional[Dict]] = (-1.0, None)
        if follow is not None and self._archive_dir is None:
            raise QueryError(
                "follow mode needs an archive-backed context "
                "(the follow engine extends an archive directory)"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        if self._follow_options is not None:
            self._start_follow()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise QueryError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def breaker(self) -> CircuitBreaker:
        """The serving circuit breaker (tests and /metrics read it)."""
        return self._breaker

    async def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: refuse new connections, drain in-flight work.

        Computations still *queued* for the worker pool are cancelled
        up front — their handlers answer a clean ``503`` immediately —
        while computations a worker already picked up drain normally.
        """
        self._closing = True
        self._follow_stop.set()
        if self._follow_thread is not None:
            self._follow_thread.join(timeout=timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for pending in list(self._pending.values()):
            pending.cancel()  # only succeeds before a worker starts it
        deadline = time.monotonic() + timeout
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        request: Optional[HttpRequest] = None
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                response = HttpResponse.error(400, str(exc))
            else:
                if request is None:
                    return
                if self._is_sse_request(request):
                    # Streaming departs from the one-shot render path:
                    # frames go out as the event log grows.
                    await self._serve_sse(request, writer)
                    return
                response = await self.handle(request)
            payload = self._render_payload(request, response)
            if payload is None:
                # Injected response-write failure: the connection dies
                # mid-response, exactly like a flaky network path; the
                # resilient client's retry budget covers this.
                self._metrics.record_counter("responses_aborted")
                return
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            if task is not None:
                self._connections.discard(task)

    def _render_payload(
        self, request: Optional[HttpRequest], response: HttpResponse
    ) -> Optional[bytes]:
        """Wire bytes for one response, or None on an injected write fault."""
        payload = response.to_bytes()
        if self._faults is None or request is None:
            return payload
        ordinal = self._write_counts.get(request.path, 0)
        self._write_counts[request.path] = ordinal + 1
        try:
            return self._faults.corrupt_bytes(
                "service.response_write", f"{request.path}#{ordinal}", payload
            )
        except (TransientIOError, WorkerCrashed):
            return None

    # ------------------------------------------------------------------
    # Live follow mode
    # ------------------------------------------------------------------

    def _start_follow(self) -> None:
        """Spin up the follow engine on its own thread."""
        engine = FollowEngine(
            self._archive_dir,
            self._context.config,
            options=self._follow_options,
            detectors=self._follow_detectors,
            faults=self._faults,
            metrics=self._metrics,
        )
        engine.resume()
        self._follow_engine = engine
        self._follow_thread = threading.Thread(
            target=self._follow_loop, name="repro-follow", daemon=True
        )
        self._follow_thread.start()

    def _follow_loop(self) -> None:
        """The follow thread's ingest loop.  Never lets a failure escape.

        :meth:`FollowEngine.advance` already absorbs per-day ingest
        problems into the degradation ladder; the catch-all here is the
        last line of the "never crash the server" contract — an
        unforeseen error degrades the feed, not the service.
        """
        engine = self._follow_engine
        while not self._follow_stop.is_set() and not engine.done:
            try:
                checkpoint = engine.advance()
            except Exception:
                self._metrics.record_counter("live_follow_errors")
                checkpoint = None
            if checkpoint is not None and self._context.archive is not None:
                try:
                    # Newly ingested days become queryable immediately.
                    self._context.archive.reload()
                except ReproError:
                    pass
            interval = engine.options.interval_seconds
            if checkpoint is None:
                # Failed cycles must not busy-spin the retry ladder.
                interval = max(interval, 0.05)
            if interval > 0:
                self._follow_stop.wait(interval)

    def _follow_status_doc(self) -> Optional[Dict]:
        """This instance's view of the follow state.

        A following server answers from its in-process engine; a server
        merely pointed at a previously-followed archive reads the
        advisory status file the engine mirrors, briefly cached to keep
        the stale-mode check off the hot path.
        """
        engine = self._follow_engine
        if engine is not None:
            return engine.status()
        if self._archive_dir is None:
            return None
        now = time.monotonic()
        stamp, cached = self._follow_status_cache
        if now - stamp < 0.25:
            return cached
        doc = read_follow_status(self._archive_dir)
        self._follow_status_cache = (now, doc)
        return doc

    def _follow_is_stalled(self) -> bool:
        doc = self._follow_status_doc()
        return doc is not None and doc.get("state") == STALLED

    # ------------------------------------------------------------------
    # The event feed: /v1/events and its SSE stream
    # ------------------------------------------------------------------

    def _events_response(self, request: HttpRequest) -> HttpResponse:
        """One page of the durable event log (``/v1/events?since=``)."""
        if self._event_log is None:
            return HttpResponse.error(
                404,
                "this instance serves a simulated context with no archive "
                "directory, so it has no event feed",
            )
        params = request.params
        try:
            since = int(params.get("since", 0))
            limit = int(params.get("limit", MAX_EVENT_PAGE))
        except ValueError as exc:
            raise HttpError(f"since/limit must be integers: {exc}") from exc
        if since < 0:
            raise HttpError(f"since must be >= 0: {since}")
        if limit < 1:
            raise HttpError(f"limit must be >= 1: {limit}")
        limit = min(limit, MAX_EVENT_PAGE)
        events = self._event_log.read_since(since, limit + 1)
        page = events[:limit]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "since": since,
            "next": page[-1].seq if page else since,
            "more": len(events) > limit,
            "events": [event.to_dict() for event in page],
            "follow": self._follow_status_doc(),
        }
        return HttpResponse.json(200, canonical_json(payload))

    @staticmethod
    def _is_sse_request(request: HttpRequest) -> bool:
        return (
            request.method == "GET"
            and split_path(request.path) == ("v1", "events", "stream")
        )

    def _sse_since(self, request: HttpRequest) -> int:
        """The stream's resume position: ``Last-Event-ID`` beats ``since``."""
        raw = request.headers.get(LAST_EVENT_ID_HEADER)
        if raw is None:
            raw = request.params.get("since", "0")
        try:
            since = int(raw)
        except ValueError as exc:
            raise HttpError(f"bad event stream position {raw!r}") from exc
        if since < 0:
            raise HttpError(f"event stream position must be >= 0: {since}")
        return since

    def _sse_limit(self, request: HttpRequest) -> Optional[int]:
        """The stream's event cap; an absent ``limit`` streams unbounded."""
        raw = request.params.get("limit")
        if raw is None:
            return None
        try:
            limit = int(raw)
        except ValueError as exc:
            raise HttpError(f"bad event stream limit {raw!r}") from exc
        if limit < 1:
            raise HttpError(f"limit must be >= 1: {limit}")
        return limit

    async def _serve_sse(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        """Pump the event log to one subscriber as an SSE stream.

        Frames carry ``id:`` lines (the event sequence number), so a
        dropped connection resumes exactly where it broke via
        ``Last-Event-ID``.  A consumer that falls more than the bounded
        buffer behind the log gets an explicit ``gap`` frame and is
        skipped ahead — dropped events stay durable in the log and
        remain fetchable through ``/v1/events``.
        """
        started = time.perf_counter()
        status = 200
        try:
            try:
                since = self._sse_since(request)
                limit = self._sse_limit(request)
            except HttpError as exc:
                status = 400
                writer.write(HttpResponse.error(400, str(exc)).to_bytes())
                await writer.drain()
                return
            if self._event_log is None:
                status = 404
                writer.write(
                    HttpResponse.error(
                        404, "no event feed without an archive"
                    ).to_bytes()
                )
                await writer.drain()
                return
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream; charset=utf-8\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            writer.write(head)
            await writer.drain()
            self._metrics.record_counter("live_sse_streams")
            await self._sse_pump(writer, since, limit)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._metrics.record_endpoint(
                "events-stream", time.perf_counter() - started, status
            )
            self._metrics.record_counter("requests_total")

    async def _sse_pump(
        self,
        writer: asyncio.StreamWriter,
        since: int,
        limit: Optional[int],
    ) -> None:
        last_sent = since
        sent = 0
        idle = 0.0
        while not self._closing:
            pending = self._event_log.read_since(last_sent)
            if pending:
                idle = 0.0
                over = len(pending) - self._sse_buffer
                if over > 0:
                    # Slow consumer: drop the oldest backlog with an
                    # explicit marker instead of buffering without bound.
                    dropped_from = pending[0].seq
                    dropped_to = pending[over - 1].seq
                    pending = pending[over:]
                    self._metrics.record_counter("live_sse_dropped", over)
                    frame = encode_gap_frame(dropped_from, dropped_to)
                    if not await self._write_sse(writer, frame,
                                                 f"gap-{dropped_to}"):
                        return
                    last_sent = dropped_to
                for event in pending:
                    frame = encode_event_frame(event)
                    if not await self._write_sse(writer, frame,
                                                 str(event.seq)):
                        return
                    last_sent = event.seq
                    sent += 1
                    self._metrics.record_counter("live_sse_events")
                    if limit is not None and sent >= limit:
                        return
                continue
            doc = self._follow_status_doc()
            if doc is not None and doc.get("done"):
                # The follow range is fully ingested and the log is
                # drained: nothing more will ever arrive.
                return
            idle += DEFAULT_SSE_POLL
            if idle >= DEFAULT_SSE_KEEPALIVE:
                idle = 0.0
                if not await self._write_sse(
                    writer, encode_comment("keepalive"), "keepalive"
                ):
                    return
            await asyncio.sleep(DEFAULT_SSE_POLL)

    async def _write_sse(
        self, writer: asyncio.StreamWriter, frame: bytes, key: str
    ) -> bool:
        """Write one frame; False ends the stream (client will resume).

        With a fault plan attached, the write is split so an injected
        ``live.sse_write`` error tears the frame mid-way — the client
        parser discards the partial frame and reconnects with
        ``Last-Event-ID``, which is exactly the recovery contract.
        """
        try:
            if self._faults is not None:
                ordinal = self._write_counts.get("sse", 0)
                self._write_counts["sse"] = ordinal + 1
                half = len(frame) // 2
                writer.write(frame[:half])
                try:
                    self._faults.check("live.sse_write", f"{key}#{ordinal}")
                except (TransientIOError, WorkerCrashed):
                    self._metrics.record_counter("live_sse_aborted")
                    await writer.drain()
                    return False
                writer.write(frame[half:])
            else:
                writer.write(frame)
            await asyncio.wait_for(writer.drain(), timeout=5.0)
            return True
        except (ConnectionError, asyncio.TimeoutError,
                asyncio.CancelledError):
            return False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one request; records per-endpoint metrics."""
        started = time.perf_counter()
        endpoint, response = await self._route(request)
        elapsed = time.perf_counter() - started
        self._metrics.record_endpoint(endpoint, elapsed, response.status)
        self._metrics.record_counter("requests_total")
        return response

    def _request_deadline(self, request: HttpRequest) -> Deadline:
        """The request's time budget: header override or server default."""
        raw = request.headers.get(DEADLINE_HEADER)
        if raw is None:
            return Deadline.after_ms(DEFAULT_DEADLINE_MS)
        try:
            budget = int(raw)
        except ValueError as exc:
            raise HttpError(f"bad {DEADLINE_HEADER} header {raw!r}") from exc
        if budget < 1:
            raise HttpError(f"{DEADLINE_HEADER} must be >= 1: {budget}")
        return Deadline.after_ms(budget)

    async def _route(self, request: HttpRequest) -> Tuple[str, HttpResponse]:
        segments = split_path(request.path)
        try:
            if segments == ():
                return "root", self._info_response()
            if segments == ("healthz",):
                return "healthz", self._health_response()
            if segments == ("metrics",):
                return "metrics", self._metrics_response()
            if segments[0] not in ("v1", "v2"):
                return "unknown", HttpResponse.error(
                    404, f"no such endpoint: {request.path}"
                )
            deadline = self._request_deadline(request)
            version, tail = segments[0], segments[1:]
            if tail == ("query",):
                return "query", await self._query_endpoint(
                    request, version, deadline
                )
            if request.method != "GET":
                return version, HttpResponse.error(
                    405, f"{request.method} not allowed on {request.path}"
                )
            if version == "v2":
                return await self._route_v2(request, tail, deadline)
            return await self._route_v1(request, tail, deadline)
        except HttpError as exc:
            return "bad-request", HttpResponse.error(400, str(exc))
        except QueryError as exc:
            return "bad-request", HttpResponse.error(400, str(exc))

    async def _query_endpoint(
        self, request: HttpRequest, version: str, deadline: Deadline
    ) -> HttpResponse:
        """``/vN/query``: a spec from the POST body or the GET params."""
        if request.method == "POST":
            spec = QuerySpec.from_dict(self._object_body(request))
        elif request.method == "GET":
            params = request.params
            spec = QuerySpec.from_dict(
                {
                    field: params[field]
                    for field in _QUERY_PARAMS[version]
                    if field in params
                }
            )
        else:
            return HttpResponse.error(
                405, f"{request.method} not allowed on /{version}/query"
            )
        return await self._query_response(spec, deadline)

    async def _route_v1(
        self, request: HttpRequest, tail: Tuple[str, ...], deadline: Deadline
    ) -> Tuple[str, HttpResponse]:
        """The GET-only ``/v1`` convenience routes."""
        params = request.params
        if tail == ("events",):
            return "events", self._events_response(request)
        if tail == ("experiments",):
            return "experiments", await self._query_response(
                QuerySpec("catalog"), deadline
            )
        if len(tail) == 2 and tail[0] == "experiments":
            spec = QuerySpec("experiment", experiment=tail[1])
            return "experiments", await self._query_response(spec, deadline)
        if len(tail) == 2 and tail[0] == "series":
            spec = QuerySpec(
                "series",
                series=tail[1],
                start=params.get("start"),
                end=params.get("end"),
            )
            return "series", await self._query_response(spec, deadline)
        if tail == ("headline",):
            return "headline", await self._query_response(
                QuerySpec("headline"), deadline
            )
        if len(tail) == 2 and tail[0] == "records":
            spec = QuerySpec(
                "records",
                date=tail[1],
                tld=params.get("tld"),
                offset=params.get("offset"),
                limit=params.get("limit"),
            )
            return "records", await self._query_response(spec, deadline)
        return "unknown", HttpResponse.error(
            404, f"no such endpoint: {request.path}"
        )

    async def _route_v2(
        self, request: HttpRequest, tail: Tuple[str, ...], deadline: Deadline
    ) -> Tuple[str, HttpResponse]:
        """The scenario-dimensioned surface (see docs/scenarios.md).

        ``/v2/query`` is ``/v1/query`` plus the ``scenario`` field (and
        the ``diff`` kind); ``/v2/scenarios`` lists the worlds this
        instance serves; ``/v2/diff`` is sugar for a diff-kind query.
        Cache isolation needs no extra plumbing: the scenario is folded
        into :meth:`QuerySpec.cache_key`, which every caching layer
        (result LRU, coalescing) keys on.
        """
        params = request.params
        if tail == ("scenarios",):
            return "scenarios", self._scenarios_response()
        if tail == ("diff",):
            spec = QuerySpec(
                "diff",
                experiment=params.get("experiment"),
                scenario=params.get("scenario"),
            )
            return "diff", await self._query_response(spec, deadline)
        return "unknown", HttpResponse.error(
            404, f"no such endpoint: {request.path}"
        )

    def _scenarios_response(self) -> HttpResponse:
        """The scenario worlds this instance can answer queries for."""
        from ..scenario import LIBRARY

        entries = []
        for scenario_id in self._facade.scenario_ids():
            entry: Dict[str, object] = {"id": scenario_id}
            spec = LIBRARY.get(scenario_id)
            if spec is not None:
                entry["title"] = spec.title
                entry["spec_digest"] = spec.digest()
            entries.append(entry)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "default": "baseline",
            "scenarios": entries,
        }
        return HttpResponse.json(200, canonical_json(payload))

    @staticmethod
    def _object_body(request: HttpRequest) -> Dict[str, object]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError("query spec body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # The unified query path:
    # cache -> breaker -> coalesce -> compute (under deadline)
    # ------------------------------------------------------------------

    async def _query_response(
        self, spec: QuerySpec, deadline: Deadline
    ) -> HttpResponse:
        response = await self._query_response_inner(spec, deadline)
        if response.status == 200 and self._follow_is_stalled():
            # The follow engine cannot keep the archive current, so
            # every answer is as-of the last good checkpoint: correct
            # bytes, marked stale.  Serving keeps working — the ladder
            # degrades the feed's freshness, never availability.
            for name, value in STALE_HEADERS.items():
                response.extra_headers.setdefault(name, value)
            self._metrics.record_counter("live_stale_served")
        return response

    async def _query_response_inner(
        self, spec: QuerySpec, deadline: Deadline
    ) -> HttpResponse:
        key = spec.cache_key()
        if self._closing:
            return self._shutdown_response()
        cached = self._cache_get(key)
        admission = self._breaker.admit()
        if cached is not None:
            if admission == ADMIT_PROBE:
                # A cache hit consumes no backend work; hand the probe
                # slot back without judging the backend either way.
                self._breaker.release_probe()
            if admission == ADMIT_DENY:
                # Degraded mode: the backend is failing, but we hold a
                # previously-fresh answer — serve it, marked stale.
                return self._stale_response(key, cached)
            self._metrics.record_cache("query_results", 1, 0)
            return HttpResponse.json(200, cached, {"X-Cache": "hit"})

        if admission == ADMIT_DENY:
            self._metrics.record_counter("breaker_rejected")
            return HttpResponse.error(
                503,
                "service degraded (circuit breaker open) and no cached "
                "answer exists for this query; retry shortly",
                {"Retry-After": str(self._breaker.retry_after())},
            )

        future = self._inflight.get(key)
        if future is not None:
            # Coalesce: ride the computation a concurrent identical
            # request already started (it keeps its own probe slot).
            if admission == ADMIT_PROBE:
                self._breaker.release_probe()
            self._metrics.record_cache("query_results", 1, 0)
            self._metrics.record_counter("requests_coalesced")
            try:
                status, text = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline.remaining()
                )
            except asyncio.TimeoutError:
                return self._deadline_response(key, deadline)
            header = "coalesced" if status == 200 else None
            return HttpResponse.json(
                status, text, {"X-Cache": header} if header else None
            )

        if len(self._inflight) >= self._queue_limit:
            if admission == ADMIT_PROBE:
                self._breaker.release_probe()
            self._metrics.record_counter("requests_rejected")
            return HttpResponse.error(
                503,
                f"query queue is full ({self._queue_limit} in flight); "
                "retry shortly",
                {"Retry-After": str(DEFAULT_RETRY_AFTER)},
            )

        probe = admission == ADMIT_PROBE
        self._metrics.record_cache("query_results", 0, 1)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        outcome = (503, error_text(503, "service shutting down"))
        try:
            try:
                outcome = await self._run_compute(spec, key, deadline)
            except asyncio.TimeoutError:
                # The worker thread exits at its next phase-boundary
                # deadline check; nobody is left waiting on it.
                outcome = (
                    504,
                    error_text(
                        504,
                        f"deadline of {deadline.budget_ms} ms exceeded "
                        "before the computation finished",
                    ),
                )
            except asyncio.CancelledError:
                # Shutdown cancelled a computation still queued for the
                # pool: answer a clean 503 instead of dropping the
                # connection.
                outcome = (503, error_text(503, "service shutting down"))
            except Exception as exc:  # defensive: _compute classifies its own
                outcome = (500, error_text(500, f"internal error: {exc}"))
        finally:
            # Resolve waiters and clear the slot even if we were cancelled
            # mid-shutdown, so coalesced requests never hang.
            self._pending.pop(key, None)
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(outcome)
        status, text = outcome
        self._account_outcome(status, probe)
        if status == 504:
            self._metrics.record_counter("deadline_exceeded")
        if status in (500, 504):
            stale = self._cache_get(key)
            if stale is not None:
                return self._stale_response(key, stale)
        if status == 200 and self._cache_results:
            self._cache_put(key, text)
        headers = (
            {"Retry-After": str(DEFAULT_RETRY_AFTER)}
            if status in (503, 504)
            else None
        )
        return HttpResponse.json(status, text, headers)

    async def _run_compute(
        self, spec: QuerySpec, key: str, deadline: Deadline
    ) -> Tuple[int, str]:
        """Submit one computation to the worker pool and await it."""
        ordinal = self._compute_counts.get(key, 0)
        self._compute_counts[key] = ordinal + 1
        pending = self._executor.submit(
            self._compute, spec, deadline, f"{key}#{ordinal}"
        )
        self._pending[key] = pending
        return await asyncio.wait_for(
            asyncio.shield(asyncio.wrap_future(pending)),
            timeout=deadline.remaining(),
        )

    def _account_outcome(self, status: int, probe: bool) -> None:
        """Feed one computation outcome to the breaker.

        5xx backend outcomes (internal errors, blown deadlines) are
        classified failures; 200 and 4xx prove the backend reachable
        and count as successes.  The shutdown 503 judges nothing.
        """
        if status in (500, 504):
            self._breaker.record_failure(probe=probe)
        elif status < 500:
            self._breaker.record_success(probe=probe)
        elif probe:
            self._breaker.release_probe()

    def _compute(
        self, spec: QuerySpec, deadline: Deadline, fault_key: str
    ) -> Tuple[int, str]:
        """Synchronous query execution (runs on the worker pool)."""
        try:
            with deadline_scope(deadline):
                deadline.check("compute_start")
                if self._faults is not None:
                    self._faults.check("service.compute", fault_key)
                return 200, self._facade.query_json(spec)
        except DeadlineExceeded as exc:
            return 504, error_text(504, str(exc))
        except QueryError as exc:
            return 400, error_text(400, str(exc))
        except ReproError as exc:
            return 500, error_text(500, str(exc))
        except (OSError, RuntimeError) as exc:
            # Injected service faults and real IO trouble surface here
            # as classified backend failures the breaker counts.
            return 500, error_text(500, f"backend failure: {exc}")

    def _note_breaker_transition(self, previous: str, state: str) -> None:
        self._metrics.record_counter(_BREAKER_COUNTERS[state])

    # ------------------------------------------------------------------
    # Degraded-mode responses
    # ------------------------------------------------------------------

    def _stale_response(self, key: str, text: str) -> HttpResponse:
        """A previously-fresh cached answer, marked stale.

        The *body* is the cached canonical JSON, byte-identical to the
        fresh response; staleness travels only in headers, so offline,
        remote-fresh, and remote-stale answers all compare equal.
        """
        self._metrics.record_cache("query_results", 1, 0)
        self._metrics.record_counter("requests_stale")
        return HttpResponse.json(200, text, dict(STALE_HEADERS))

    def _deadline_response(self, key: str, deadline: Deadline) -> HttpResponse:
        self._metrics.record_counter("deadline_exceeded")
        stale = self._cache_get(key)
        if stale is not None:
            return self._stale_response(key, stale)
        return HttpResponse.error(
            504,
            f"deadline of {deadline.budget_ms} ms exceeded",
            {"Retry-After": str(DEFAULT_RETRY_AFTER)},
        )

    def _shutdown_response(self) -> HttpResponse:
        return HttpResponse.error(
            503, "service shutting down",
            {"Retry-After": str(DEFAULT_RETRY_AFTER)},
        )

    # ------------------------------------------------------------------
    # Result LRU
    # ------------------------------------------------------------------

    def _cache_get(self, key: str) -> Optional[str]:
        text = self._cache.get(key)
        if text is not None:
            self._cache.move_to_end(key)
        return text

    def _cache_put(self, key: str, text: str) -> None:
        self._cache[key] = text
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_results:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    def _info_response(self) -> HttpResponse:
        payload = {
            "service": "repro-query-service",
            "schema_version": SCHEMA_VERSION,
            "endpoints": [
                "GET /healthz",
                "GET /metrics",
                "GET|POST /v1/query",
                "GET /v1/experiments",
                "GET /v1/experiments/<id>",
                "GET /v1/series/<name>?start=&end=",
                "GET /v1/headline",
                "GET /v1/records/<date>?tld=&offset=&limit=",
                "GET /v1/events?since=&limit=",
                "GET /v1/events/stream (SSE; Last-Event-ID resume)",
                "GET|POST /v2/query",
                "GET /v2/scenarios",
                "GET /v2/diff?experiment=&scenario=",
            ],
            "scenarios": self._facade.scenario_ids(),
        }
        return HttpResponse.json(200, canonical_json(payload))

    def _serving_state(self) -> str:
        """The ``live|ready|degraded`` state machine.

        ``live`` — the process answers but is not (or no longer)
        accepting query work: starting up or draining for shutdown;
        ``ready`` — healthy, breaker closed;
        ``degraded`` — the breaker is open or probing half-open, so
        queries are answered stale-from-cache or refused.
        """
        if self._closing or self._server is None:
            return "live"
        if self._breaker.state != CLOSED:
            return "degraded"
        return "ready"

    def _health_response(self) -> HttpResponse:
        payload = {
            "status": self._serving_state(),
            "closing": self._closing,
            "breaker": self._breaker.state,
            "schema_version": SCHEMA_VERSION,
            "inflight": len(self._inflight),
        }
        follow = self._follow_status_doc()
        if follow is not None:
            payload["follow"] = follow.get("state")
            payload["ingest_lag_days"] = follow.get("ingest_lag_days", 0)
            payload["follow_detail"] = {
                "last_date": follow.get("last_date"),
                "event_cursor": follow.get("event_cursor", 0),
                "consecutive_failures": follow.get(
                    "consecutive_failures", 0
                ),
                "done": follow.get("done", False),
            }
        return HttpResponse.json(200, canonical_json(payload))

    def _metrics_response(self) -> HttpResponse:
        sync_fault_metrics(self._faults, self._metrics)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "metrics": jsonify(self._metrics.summary()),
            "service": {
                "state": self._serving_state(),
                "inflight": len(self._inflight),
                "cached_results": len(self._cache),
                "queue_limit": self._queue_limit,
                "deadline_ms": DEFAULT_DEADLINE_MS,
                "breaker": self._breaker.snapshot(),
            },
        }
        follow = self._follow_status_doc()
        if follow is not None:
            payload["service"]["follow"] = follow
        return HttpResponse.json(200, canonical_json(payload))


async def run_service(
    context,
    host: str = "127.0.0.1",
    port: int = 8321,
    ready=None,
    stop_event: Optional[asyncio.Event] = None,
    **options,
) -> int:
    """Start a service, announce readiness, and serve until stopped.

    ``ready`` (if given) is called with the started :class:`QueryService`
    once the socket is bound; ``stop_event`` ends the loop (``repro
    serve`` sets it from SIGINT/SIGTERM).  Returns the process exit code.
    """
    service = QueryService(context, **options)
    await service.start(host, port)
    if ready is not None:
        ready(service)
    event = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    if stop_event is None:
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    await event.wait()
    await service.shutdown()
    return 0

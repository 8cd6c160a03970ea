"""Outside-in layer tracing: timing wrappers around public callables.

Nothing in ``src/`` is edited.  :func:`install_build_layers` and
:func:`install_server_layers` replace the named callables of
``repro.sim``, ``repro.measurement``, ``repro.archive``,
``repro.ioutil``, ``repro.api`` and ``repro.service`` (in every module
that imported them by name) with wrappers that record one span per
call: name, start, end, span id, parent span id and request id.  Parent
links follow a :mod:`contextvars` variable, which asyncio tasks inherit
and which the patched ``ThreadPoolExecutor.submit`` carries into query
worker threads, so the spans of one HTTP request share its id.

Spans stay in memory; :meth:`Tracer.write` dumps them as Chrome
trace-event JSON (``{"traceEvents": [...]}``), which Perfetto and
``chrome://tracing`` open directly.  Timestamps are
``time.perf_counter()`` seconds, which on Linux is the system-wide
monotonic clock, so spans from the server process line up with the
driver's own timestamps.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Tracer",
    "install_build_layers",
    "install_server_layers",
    "load_spans",
]

#: (name, start, end, span id, parent id, request id, thread id, label)
Span = Tuple[str, float, float, int, int, int, int, str]

_clock = time.perf_counter


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: (current span id, current request id) of the running call chain.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, 0)
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def _enter(self, root: bool):
        parent, request = self._current.get()
        span_id = next(self._ids)
        if root:
            request = span_id
        token = self._current.set((span_id, request))
        return span_id, parent, request, token

    def _exit(self, name, started, span_id, parent, request, token, label):
        ended = _clock()
        self._current.reset(token)
        self.spans.append(
            (name, started, ended, span_id, parent, request,
             threading.get_ident(), label)
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        root: bool = False,
        label: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper around a plain or ``async`` callable.

        ``label(*args)`` names what the call worked on (kept in the
        span); ``after(result, *args)`` runs after the span has closed,
        for counters whose bookkeeping must not be timed.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id, parent, request, token = tracer._enter(root)
                started = _clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._exit(
                        name, started, span_id, parent, request, token,
                        label(*args) if label else "",
                    )
                if after is not None:
                    after(result, *args)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, request, token = tracer._enter(root)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(
                    name, started, span_id, parent, request, token,
                    label(*args) if label else "",
                )
            if after is not None:
                after(result, *args)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time each ``next()`` of the generator ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                span_id, parent, request, token = tracer._enter(False)
                started = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, started, span_id, parent, request,
                                 token, "")
                yield item

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def patch(self, modules: Sequence, attr: str, name: str, **options) -> None:
        """Wrap ``attr`` once and rebind it in every module given."""
        original = getattr(modules[0], attr)
        wrapped = self.wrap(original, name, **options)
        for module in modules:
            if getattr(module, attr) is original:
                setattr(module, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, **options) -> None:
        """Wrap a method (plain, ``async`` or classmethod) on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, **options)))
        else:
            setattr(cls, attr, self.wrap(raw, name, **options))

    def propagate_into_threads(self) -> None:
        """Run executor jobs inside the submitter's context (span chain)."""
        original = ThreadPoolExecutor.submit

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            return original(executor, context.run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Chrome trace-event JSON of every span, plus the counters."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round(started * 1e6, 3),
                "dur": round((ended - started) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent,
                         "request": request, "label": label},
            }
            for (name, started, ended, span_id, parent, request, tid, label)
            in list(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"counters": dict(self.counters)}},
                handle,
            )


def load_spans(path: str):
    """``(spans, counters)`` back from a :meth:`Tracer.write` file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    spans = [
        (
            event["name"],
            event["ts"] / 1e6,
            (event["ts"] + event["dur"]) / 1e6,
            event["args"]["id"],
            event["args"]["parent"],
            event["args"]["request"],
            event["tid"],
            event["args"]["label"],
        )
        for event in payload["traceEvents"]
    ]
    return spans, payload.get("otherData", {}).get("counters", {})


# ----------------------------------------------------------------------
# Layer sets
# ----------------------------------------------------------------------

def _shard_ratio(tracer: Tracer):
    """Counter hook for ``encode_shard``: raw vs compressed block bytes."""
    import zlib

    from repro.archive import shard

    def after(result, record, *args) -> None:
        blob, _ = result
        header = shard._HEADER_V3
        (_, _, _, _, _, _, payload_length, summary_blob_length,
         _) = header.unpack_from(blob)
        summary = zlib.decompress(
            blob[header.size:header.size + summary_blob_length]
        )
        tracer.count("archive.encode.raw_bytes", payload_length + len(summary))
        tracer.count("archive.encode.compressed_bytes", len(blob) - header.size)

    return after


def install_build_layers(tracer: Tracer) -> None:
    """Wrap the write path: world build → collect → summarize → encode → write."""
    from repro import ioutil
    from repro.archive import builder, kernel, manifest, shard, stream
    from repro.measurement.fast import FastCollector
    from repro.measurement.sweep import SweepEngine
    from repro.sim import conflict

    tracer.patch([conflict], "build_world", "sim.build_world")
    tracer.patch_method(builder.ArchiveBuilder, "build", "archive.build", root=True)
    tracer.patch_method(SweepEngine, "run", "measurement.sweep")
    FastCollector.sweep = tracer.wrap_generator(
        FastCollector.__dict__["sweep"], "measurement.collect"
    )
    tracer.patch_method(shard.DayShardRecord, "from_snapshot",
                        "archive.from_snapshot")
    tracer.patch_method(stream.DayStream, "from_snapshot", "archive.from_snapshot")
    tracer.patch([builder, kernel], "summarize_snapshot", "archive.summarize")
    tracer.patch([shard], "encode_shard", "archive.encode",
                 after=_shard_ratio(tracer))
    tracer.patch([builder, stream], "write_shard_stream", "archive.encode")

    def attempts(retries, path, *args) -> None:
        if str(path).endswith(".shard"):
            tracer.count("ioutil.atomic_write.shard_attempts", 1 + int(retries))

    tracer.patch([ioutil, shard, manifest], "atomic_write_bytes",
                 "ioutil.atomic_write", after=attempts)
    tracer.patch_method(manifest.Manifest, "save", "archive.manifest_save")


def _spec_kind(facade, spec, *args) -> str:
    if isinstance(spec, dict):
        return str(spec.get("kind", ""))
    return str(getattr(spec, "kind", ""))


def install_server_layers(tracer: Tracer) -> None:
    """Wrap the query path: HTTP parse → cache → facade → kernel → shard read."""
    import asyncio

    from repro.api import facade, spec
    from repro.archive import kernel, shard, store
    from repro.service import http, server
    from repro.sim import conflict

    tracer.propagate_into_threads()
    tracer.patch([conflict], "build_world", "sim.build_world")
    tracer.patch_method(server.QueryService, "_on_connection",
                        "service.connection", root=True)
    tracer.patch([server, http], "read_request", "service.read_request")
    tracer.patch_method(server.QueryService, "handle", "service.handle",
                        label=lambda service, request: request.path)
    tracer.patch_method(http.HttpResponse, "to_bytes", "service.to_bytes")
    for attr in ("write", "drain", "close", "wait_closed"):
        tracer.patch_method(asyncio.StreamWriter, attr, "service.socket_write")
    tracer.patch_method(facade.AnalysisFacade, "query_json", "api.query_json",
                        label=_spec_kind)
    tracer.patch_method(spec.QueryResult, "to_json", "api.to_json")
    tracer.patch_method(store.ArchiveCollector, "collect", "archive.collect")
    tracer.patch_method(store.MeasurementArchive, "load_day", "archive.load_day")

    tracer.patch([shard, store], "read_shard", "archive.read_shard",
                 label=lambda path, *args: str(path))
    tracer.patch_method(kernel.ArchiveQueryKernel, "full_sweep_records",
                        "archive.kernel")
    tracer.patch_method(kernel.ArchiveQueryKernel, "recent_records",
                        "archive.kernel")

"""Per-layer metrics from recorded spans, and the layer-sum checks.

Every workload's traced run reports every per-layer metric; a layer the
workload never calls reads 0 (its wrapper was installed and counted no
calls).  Times are seconds summed over the traced phase.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Sequence

from perfbench.tracing import Span

__all__ = [
    "LAYER_METRICS", "BUILD_PARTS", "SERVER_PARTS",
    "build_layers", "server_layers", "layer_metrics", "empty_layers",
]

#: Every per-layer metric name with its unit, in report order.
LAYER_METRICS = [
    ("sim.build_world.s", "s"),
    ("measurement.collect.s", "s"),
    ("measurement.sweep.self_s", "s"),
    ("archive.from_snapshot.s", "s"),
    ("archive.summarize.s", "s"),
    ("archive.encode.s", "s"),
    ("archive.encode.ratio", "ratio"),
    ("ioutil.atomic_write.s", "s"),
    ("ioutil.atomic_write.calls_per_shard", "count"),
    ("archive.manifest_save.s", "s"),
    ("service.read_request.s", "s"),
    ("service.handle.self_s", "s"),
    ("service.to_bytes.s", "s"),
    ("service.socket_write.s", "s"),
    ("service.result_cache.hit_ratio", "ratio"),
    ("api.query_json.s", "s"),
    ("api.query_json.calls", "count"),
    ("api.records.self_s", "s"),
    ("api.to_json.s", "s"),
    ("archive.collect.s", "s"),
    ("archive.load_day.s", "s"),
    ("archive.load_day.miss_ratio", "ratio"),
    ("archive.read_shard.s", "s"),
    ("archive.read_shard.bytes", "B"),
    ("archive.kernel.s", "s"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.lateness_max_ms", "ms"),
    ("tracing.overhead_pct", "%"),
    ("trace.build_layer_sum_pct", "%"),
    ("trace.server_layer_sum_pct", "%"),
]

#: Build layers that partition the day loop (the 5% check sums these).
BUILD_PARTS = (
    "measurement.collect.s", "measurement.sweep.self_s",
    "archive.from_snapshot.s", "archive.summarize.s", "archive.encode.s",
    "ioutil.atomic_write.s", "archive.manifest_save.s",
)
#: Server layers that partition connection time.
SERVER_PARTS = (
    "service.read_request.s", "service.handle.self_s", "api.query_json.s",
    "service.to_bytes.s", "service.socket_write.s",
)


def _totals(spans: Sequence[Span]):
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span[0]] += span[2] - span[1]
        calls[span[0]] += 1
    return seconds, calls


def empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name, _ in LAYER_METRICS}


def build_layers(spans: Sequence[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Build-path layers of one traced build (spans of its build() call)."""
    layers = empty_layers()
    seconds, _ = _totals(spans)
    by_id = {span[3]: span for span in spans}
    shard_writes = [
        span for span in spans
        if span[0] == "ioutil.atomic_write"
        and by_id.get(span[4], ("",))[0] != "archive.manifest_save"
    ]
    shard_write_s = sum(span[2] - span[1] for span in shard_writes)
    layers["sim.build_world.s"] = seconds["sim.build_world"]
    layers["measurement.collect.s"] = seconds["measurement.collect"]
    layers["archive.from_snapshot.s"] = seconds["archive.from_snapshot"]
    layers["archive.summarize.s"] = seconds["archive.summarize"]
    layers["archive.encode.s"] = seconds["archive.encode"]
    layers["ioutil.atomic_write.s"] = shard_write_s
    layers["archive.manifest_save.s"] = seconds["archive.manifest_save"]
    # The engine's and the reducer's own glue: the sweep minus the
    # layers it calls into.
    layers["measurement.sweep.self_s"] = seconds["measurement.sweep"] - sum(
        layers[name] for name in (
            "measurement.collect.s", "archive.from_snapshot.s",
            "archive.summarize.s", "archive.encode.s", "ioutil.atomic_write.s",
        )
    )
    raw = counters.get("archive.encode.raw_bytes", 0.0)
    if raw:
        layers["archive.encode.ratio"] = (
            counters["archive.encode.compressed_bytes"] / raw
        )
    if shard_writes:
        # Write attempts per shard written: above 1 means retries.
        layers["ioutil.atomic_write.calls_per_shard"] = (
            counters.get("ioutil.atomic_write.shard_attempts", 0.0)
            / len(shard_writes)
        )
    day_loop = seconds["archive.build"] - seconds["sim.build_world"]
    layers["trace.build_layer_sum_pct"] = (
        100.0 * sum(layers[name] for name in BUILD_PARTS) / day_loop
    )
    return layers


def _is_query(path: str) -> bool:
    return path.startswith(("/v1/", "/v2/")) and not path.startswith("/v1/events")


def server_layers(spans: Sequence[Span], window) -> Dict[str, float]:
    """Query-path layers of the requests whose connection began in ``window``.

    Set-up layers (world build, kernel sweeps) are whole-process: they
    run once, during warm-up.
    """
    layers = empty_layers()
    begin, end = window
    roots = {
        span[5] for span in spans
        if span[0] == "service.connection" and begin <= span[1] <= end
    }
    timed = [span for span in spans if span[5] in roots]
    seconds, calls = _totals(timed)
    whole, _ = _totals(spans)
    layers["sim.build_world.s"] = whole["sim.build_world"]
    layers["archive.kernel.s"] = whole["archive.kernel"]

    layers["service.read_request.s"] = seconds["service.read_request"]
    layers["service.handle.self_s"] = (
        seconds["service.handle"] - seconds["api.query_json"]
    )
    layers["service.to_bytes.s"] = seconds["service.to_bytes"]
    layers["service.socket_write.s"] = seconds["service.socket_write"]
    queries = sum(
        1 for span in timed if span[0] == "service.handle" and _is_query(span[7])
    )
    if queries:
        layers["service.result_cache.hit_ratio"] = (
            1.0 - calls["api.query_json"] / queries
        )
    layers["api.query_json.s"] = seconds["api.query_json"]
    layers["api.query_json.calls"] = float(calls["api.query_json"])
    records_ids = {
        span[3] for span in timed
        if span[0] == "api.query_json" and span[7] == "records"
    }
    layers["api.records.self_s"] = sum(
        span[2] - span[1] for span in timed if span[3] in records_ids
    ) - sum(
        span[2] - span[1] for span in timed if span[4] in records_ids
    )
    layers["api.to_json.s"] = seconds["api.to_json"]
    layers["archive.collect.s"] = seconds["archive.collect"]
    layers["archive.load_day.s"] = seconds["archive.load_day"]
    if calls["archive.load_day"]:
        layers["archive.load_day.miss_ratio"] = (
            calls["archive.read_shard"] / calls["archive.load_day"]
        )
    layers["archive.read_shard.s"] = seconds["archive.read_shard"]
    layers["archive.read_shard.bytes"] = float(sum(
        os.path.getsize(span[7]) for span in timed
        if span[0] == "archive.read_shard"
    ))
    connection = seconds["service.connection"]
    if connection:
        layers["trace.server_layer_sum_pct"] = (
            100.0 * sum(layers[name] for name in SERVER_PARTS) / connection
        )
    return layers


def layer_metrics(layers: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    units = dict(LAYER_METRICS)
    return {
        name: {"value": float(layers[name]), "unit": units[name]}
        for name, _ in LAYER_METRICS
    }


"""The ``build`` workload's measured process (always a fresh subprocess).

Usage: ``python3 perfbench/build_child.py SEED SECONDS TRACE RESULT_JSON``

Builds the 93-day conflict window (2022-02-22 .. 2022-05-25) at 1:250
with ``ArchiveBuilder(dir, config).build(...)`` — one worker, the
default (whole-day) shard writer — into a fresh directory: as many
whole builds as fit in ``SECONDS``, and at least one (exactly one when
traced).  Untraced,
only two cheap wrappers are installed: ``build_world`` (to split set-up
from the day loop) and the per-day reducer (to time each day).  With
``TRACE=1`` every build-path layer is wrapped instead and the spans are
written next to the result as Chrome trace-event JSON.

Peak RSS is read right after the first build.  Two more world builds
follow it, so ``setup_s`` is a median of at least three.

Untraced, a reference loop (:class:`perfbench.common.Pace`) runs after
every day and before and after every world build; each day and world
build is paced by the mean of the loop just before it and the loop just
after it, and the loops' own time is left out of every day.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time

from perfbench.common import WORK, Pace, scenario_config, vm_hwm_mib
from perfbench.tracing import Tracer, install_build_layers

FIRST_DAY = "2022-02-22"
LAST_DAY = "2022-05-25"
EXTRA_WORLD_BUILDS = 2


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def main(argv) -> int:
    seed, seconds, trace, result_path = (
        int(argv[0]), float(argv[1]), argv[2] == "1", argv[3]
    )
    from repro.archive import ArchiveBuilder, MeasurementArchive, archive_digest
    from repro.archive.builder import ArchiveShardReducer
    from repro.sim import conflict

    tracer = Tracer()
    # No loop runs inside a day or a world build, so each is paced by
    # the two nearest: the one just before it and the one just after.
    pace = Pace(window=0.0, nearest=2)
    if trace:
        install_build_layers(tracer)
        tracer.patch_method(ArchiveShardReducer, "reduce_day",
                            "archive.reduce_day")
    else:
        tracer.patch([conflict], "build_world", "sim.build_world",
                     after=lambda *_: pace.sample())
        tracer.patch_method(ArchiveBuilder, "build", "archive.build", root=True)
        tracer.patch_method(ArchiveShardReducer, "reduce_day",
                            "archive.reduce_day",
                            after=lambda *_: pace.sample())

    config = scenario_config(seed)
    builds = []
    peak_rss = None
    started = time.perf_counter()
    # Another whole build only if it should still end within ``seconds``;
    # a traced run measures exactly one build (its counters are global).
    while not builds or not trace and (
        (time.perf_counter() - started) * (len(builds) + 1) / len(builds)
        <= seconds
    ):
        directory = os.path.join(WORK, f"build-{os.getpid()}-{len(builds)}")
        shutil.rmtree(directory, ignore_errors=True)
        first_span = len(tracer.spans)
        if not trace:
            pace.sample()
        report = ArchiveBuilder(directory, config).build(FIRST_DAY, LAST_DAY)
        spans = tracer.spans[first_span:]
        if peak_rss is None:
            peak_rss = vm_hwm_mib(os.getpid())
        archive = MeasurementArchive(directory)
        records = sum(entry.records for entry in archive.manifest.days.values())
        builds.append({
            "spans": spans,
            "days": len(report.written),
            "records": records,
            "bytes": _dir_bytes(directory),
            "problems": archive.verify(),
            "digest": archive_digest(directory),
        })
        shutil.rmtree(directory, ignore_errors=True)
        gc.collect()

    for _ in range(EXTRA_WORLD_BUILDS):
        pace.sample()
        conflict.build_world(config)
        gc.collect()

    world_builds = [
        (end - begin, pace.normalise(end - begin, begin, end) if not trace
         else end - begin)
        for (name, begin, end, *_rest) in tracer.spans
        if name == "sim.build_world"
    ]
    day_times, paced_days, day_loops, build_spans = [], [], [], []
    for build in builds:
        spans = build.pop("spans")
        root = next(span for span in spans if span[0] == "archive.build")
        world = next(span for span in spans if span[0] == "sim.build_world")
        # A day's time is the gap between consecutive reducer finishes
        # (the first from the end of the world build): collect + reduce,
        # less the reference loops run in the gap.
        previous = world[2]
        loop = 0.0
        for span in sorted(
            (span for span in spans if span[0] == "archive.reduce_day"),
            key=lambda span: span[2],
        ):
            took = span[2] - previous - pace.took(previous, span[2])
            day_times.append(took)
            if not trace:
                paced_days.append(pace.normalise(took, previous, span[2]))
            loop += took
            previous = span[2]
        day_loops.append(loop)
        build_spans.extend(spans)

    result = {
        "builds": builds,
        "world_build_s": [took for took, _ in world_builds],
        "paced_world_build_s": [paced for _, paced in world_builds],
        "day_loop_s": day_loops,
        "day_s": day_times,
        "paced_day_s": paced_days,
        "peak_rss_mib": peak_rss,
    }
    if trace:
        trace_path = result_path[: -len(".json")] + ".trace.json"
        tracer.spans = build_spans
        tracer.write(trace_path)
        result["trace"] = trace_path
        result["counters"] = tracer.counters
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Bench: the scale ladder — build cost and peak memory toward paper scale.

The source paper measures ~11.7M domains under .ru/.su/.рф (§2); the
repo's default bench scale is 1:250 of that.  This bench climbs the
ladder — 1:250 → 1:50 → 1:10, and 1:1 when ``REPRO_SCALE_FULL=1`` —
building a short daily archive window at each rung through the
streaming shard writer inside a fresh subprocess, so every rung reports
an honest, isolated peak RSS.

Per rung, ``benchmarks/output/BENCH_scale.json`` records population,
build seconds (world construction included) and, of those, the world
build's own seconds (``world_build_seconds``, the builder's
``world_build`` phase), archive bytes, peak RSS
split by layer (``world_rss_bytes``, the RSS when the world build ends,
before the first day; the rest of ``peak_rss_bytes`` is the day loop)
and per domain (``peak_bytes_per_domain``), cold summary-query latency,
and the cold records page: a freshly opened
archive loads one day and materialises its last 20 records, which
indexes the whole day (median over the archived days).  The cold start
is what a freshly started server pays for its first records page: open
an :class:`~repro.experiments.ExperimentContext` over the rung's
archive and time its first ``.ru`` records query through
``context.api.query_json``.  Rungs of 1:50 and smaller run three times
and record the median build, world-build and page times with their
samples, since
one sample of a seconds-long rung swings more than the effects it is
used to show.  The record carries the host's cores, Python and numpy
versions, the commit and the source digest, under the names
perfbench's env block gives them.  Two regression gates run over the
ladder:

* **sublinear memory** — peak RSS must grow strictly slower than the
  population between adjacent rungs (the bounded-memory invariant:
  per-day encode transients scale with the writer's ``CHUNK_DOMAINS``,
  not scale);
* **absolute ceiling** — no rung may exceed ``REPRO_SCALE_MAX_RSS_MB``
  (default 6144), which CI tightens for the rungs it runs.

Env knobs: ``REPRO_SCALE_RUNGS`` (comma-separated divisors, default
``250,50,10``), ``REPRO_SCALE_FULL=1`` (append the 1:1 rung),
``REPRO_SCALE_MAX_RSS_MB``, ``REPRO_SCALE_MIN_DOMAIN_RATE``.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import textwrap

from _util import ROOT_DIR, environment

from repro.archive.stream import CHUNK_DOMAINS

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
SRC_DIR = ROOT_DIR / "src"

#: The daily window each rung archives (3 conflict-window days).
WINDOW_START = "2022-02-24"
WINDOW_END = "2022-02-26"
WINDOW_DAYS = 3

#: Ladder rungs as scale divisors (1:N of the paper's 11.7M domains).
DEFAULT_RUNGS = "250,50,10"

#: Rungs at or below this size (divisor at or above it) run
#: ``SMALL_RUNG_SAMPLES`` times; taller rungs take minutes and run once.
SMALL_RUNG_MIN_DIVISOR = 50
SMALL_RUNG_SAMPLES = 3

#: Records materialised from the end of each day for the cold page.
RECORDS_PAGE = 20

#: Peak-RSS ceiling per rung, MiB.  Generous by default (the 1:10 rung
#: holds a ~1.2M-domain world); CI enforces a tighter value for the
#: small rungs it runs.
MAX_RSS_MIB = float(os.environ.get("REPRO_SCALE_MAX_RSS_MB", "6144"))

#: Build-throughput floor, measured domain-days archived per second of
#: total rung time (world build included).  A modest floor that catches
#: order-of-magnitude regressions without flaking on shared runners.
MIN_DOMAIN_RATE = float(os.environ.get("REPRO_SCALE_MIN_DOMAIN_RATE", "500"))


def ladder_rungs() -> list:
    rungs = [
        int(token)
        for token in os.environ.get("REPRO_SCALE_RUNGS", DEFAULT_RUNGS).split(",")
        if token.strip()
    ]
    if os.environ.get("REPRO_SCALE_FULL") == "1" and 1 not in rungs:
        rungs.append(1)
    return rungs


_RUNG_SCRIPT = textwrap.dedent(
    """
    import json
    import statistics
    import sys
    import time
    from contextlib import contextmanager

    from repro.archive import ArchiveBuilder, MeasurementArchive
    from repro.experiments import ExperimentContext
    from repro.measurement.metrics import SweepMetrics, current_rss_bytes
    from repro.scenario import ScenarioSpec

    divisor, directory, window_start, window_end, page = (
        int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4],
        int(sys.argv[5]),
    )
    class RungMetrics(SweepMetrics):
        # Also samples RSS as the world build phase ends.
        world_rss_bytes = 0

        @contextmanager
        def phase(self, name):
            with super().phase(name) as stat:
                yield stat
            if name == "world_build":
                self.world_rss_bytes = self.sample_rss()

    metrics = RungMetrics()
    config = ScenarioSpec.resolve("baseline").with_config(
        scale=float(divisor), with_pki=False
    ).compile()
    started = time.perf_counter()
    builder = ArchiveBuilder(directory, config, metrics=metrics)
    report = builder.build(window_start, window_end)
    build_seconds = time.perf_counter() - started
    world_build_seconds = metrics.get_phase("world_build").wall_seconds
    metrics.sample_rss()

    archive = MeasurementArchive(directory)
    population = archive.manifest.population_size

    # Query latency: coarse longitudinal queries replay stored
    # summaries, read here from disk on a freshly opened archive.
    started = time.perf_counter()
    archive.load_summaries(window_start, window_end)
    cold_query_seconds = time.perf_counter() - started
    # Taken before the records pages, so the column stays the build's.
    peak_rss_bytes = max(metrics.peak_rss_bytes, current_rss_bytes())

    # Cold records page: a fresh archive misses the shard cache, and
    # the day's last positions make the record index the whole day.
    page_ms = []
    for day in report.written:
        started = time.perf_counter()
        record = MeasurementArchive(directory).load_day(day)
        count = len(record.measured)
        for position in range(max(count - page, 0), count):
            record.measurement_at(position)
        page_ms.append((time.perf_counter() - started) * 1e3)

    # Cold start: a freshly opened context serves its first records page.
    started = time.perf_counter()
    context = ExperimentContext(config=config, archive=directory)
    context.api.query_json({
        "kind": "records", "date": window_start, "tld": "ru", "limit": page,
    })
    cold_start_ms = (time.perf_counter() - started) * 1e3

    print(json.dumps({
        "divisor": divisor,
        "population": population,
        "archived_days": len(report.written),
        "build_seconds": round(build_seconds, 3),
        "world_build_seconds": round(world_build_seconds, 3),
        "archive_bytes": report.bytes_written,
        "peak_rss_bytes": peak_rss_bytes,
        "world_rss_bytes": metrics.world_rss_bytes,
        "cold_query_seconds": round(cold_query_seconds, 6),
        "cold_records_page_ms": round(statistics.median(page_ms), 3),
        "cold_start_records_page_ms": round(cold_start_ms, 3),
    }))
    """
)


def run_rung(divisor: int, directory: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    result = subprocess.run(
        [
            sys.executable, "-c", _RUNG_SCRIPT,
            str(divisor), directory, WINDOW_START, WINDOW_END,
            str(RECORDS_PAGE),
        ],
        capture_output=True,
        text=True,
        timeout=3600,
        env=env,
    )
    assert result.returncode == 0, (
        f"rung 1:{divisor} failed:\n{result.stderr[-2000:]}"
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def measure_rung(divisor: int, directory: pathlib.Path) -> dict:
    """One rung's record: the median of its samples, the RSS fields the max."""
    samples = SMALL_RUNG_SAMPLES if divisor >= SMALL_RUNG_MIN_DIVISOR else 1
    runs = [run_rung(divisor, str(directory / str(n))) for n in range(samples)]
    record = dict(runs[0])
    for key in (
        "build_seconds", "world_build_seconds", "cold_records_page_ms",
        "cold_start_records_page_ms",
    ):
        values = [run[key] for run in runs]
        record[key] = statistics.median(values)
        record[f"{key}_samples"] = values
    for key in ("peak_rss_bytes", "world_rss_bytes"):
        record[key] = max(run[key] for run in runs)
    record["peak_bytes_per_domain"] = round(
        record["peak_rss_bytes"] / record["population"], 1
    )
    return record


def test_bench_scale_ladder(tmp_path):
    rungs = ladder_rungs()
    assert len(rungs) >= 2, "the ladder needs at least two rungs to compare"
    records = []
    for divisor in rungs:
        record = measure_rung(divisor, tmp_path / f"rung-{divisor}")
        assert record["archived_days"] == WINDOW_DAYS
        assert record["archive_bytes"] > 0
        assert 0 < record["world_rss_bytes"] <= record["peak_rss_bytes"]
        # Each sample's world build is part of that sample's build.
        assert all(
            0 < world <= build
            for world, build in zip(
                record["world_build_seconds_samples"], record["build_seconds_samples"]
            )
        )
        peak_mib = record["peak_rss_bytes"] / (1024 * 1024)
        assert peak_mib <= MAX_RSS_MIB, (
            f"rung 1:{divisor} peaked at {peak_mib:.0f} MiB "
            f"(ceiling {MAX_RSS_MIB:.0f} MiB)"
        )
        domain_days = record["population"] * WINDOW_DAYS
        rate = domain_days / record["build_seconds"]
        assert rate >= MIN_DOMAIN_RATE, (
            f"rung 1:{divisor} archived {rate:.0f} domain-days/s "
            f"(floor {MIN_DOMAIN_RATE:.0f})"
        )
        records.append(record)

    # The bounded-memory invariant: between adjacent rungs the
    # population grows by the divisor ratio, peak RSS must grow by
    # strictly less (fixed interpreter/numpy baseline + chunk-bounded
    # encode transients; only the world and the day columns scale).
    ordered = sorted(records, key=lambda record: record["population"])
    growth = []
    for smaller, larger in zip(ordered, ordered[1:]):
        population_ratio = larger["population"] / smaller["population"]
        rss_ratio = larger["peak_rss_bytes"] / smaller["peak_rss_bytes"]
        growth.append(
            {
                "from_divisor": smaller["divisor"],
                "to_divisor": larger["divisor"],
                "population_ratio": round(population_ratio, 2),
                "rss_ratio": round(rss_ratio, 2),
            }
        )
        assert rss_ratio < population_ratio, (
            f"peak RSS grew {rss_ratio:.2f}x for a {population_ratio:.2f}x "
            f"population step (1:{smaller['divisor']} -> "
            f"1:{larger['divisor']}): the streaming build is no longer "
            "sublinear in scale"
        )

    payload = {
        "window": {
            "start": WINDOW_START,
            "end": WINDOW_END,
            "days": WINDOW_DAYS,
        },
        "chunk_domains": CHUNK_DOMAINS,
        "env": environment(),
        "rungs": records,
        "rss_growth": growth,
        "ceiling_mib": MAX_RSS_MIB,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_scale.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))

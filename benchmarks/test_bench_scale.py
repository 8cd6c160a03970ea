"""Bench: the scale ladder — build cost and peak memory toward paper scale.

The source paper measures ~11.7M domains under .ru/.su/.рф (§2); the
repo's default bench scale is 1:250 of that.  This bench climbs the
ladder — 1:250 → 1:50 → 1:10, and 1:1 when ``REPRO_SCALE_FULL=1`` —
building a short daily archive window at each rung through the
streaming shard writer inside a fresh subprocess, so every rung reports
an honest, isolated peak RSS.

Per rung, ``benchmarks/output/BENCH_scale.json`` records population,
build seconds (world construction included), archive bytes, peak RSS,
and cold summary-query latency.  Two regression gates run over the ladder:

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
import subprocess
import sys
import textwrap

from repro.archive.stream import CHUNK_DOMAINS

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

#: The daily window each rung archives (3 conflict-window days).
WINDOW_START = "2022-02-24"
WINDOW_END = "2022-02-26"
WINDOW_DAYS = 3

#: Ladder rungs as scale divisors (1:N of the paper's 11.7M domains).
DEFAULT_RUNGS = "250,50,10"

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
    import sys
    import time

    from repro.archive import ArchiveBuilder, MeasurementArchive
    from repro.measurement.metrics import SweepMetrics, current_rss_bytes
    from repro.scenario import ScenarioSpec

    divisor, directory, window_start, window_end = (
        int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
    )
    metrics = SweepMetrics()
    config = ScenarioSpec.resolve("baseline").with_config(
        scale=float(divisor), with_pki=False
    ).compile()
    started = time.perf_counter()
    builder = ArchiveBuilder(directory, config, metrics=metrics)
    report = builder.build(window_start, window_end)
    build_seconds = time.perf_counter() - started
    metrics.sample_rss()

    archive = MeasurementArchive(directory)
    population = archive.manifest.population_size

    # Query latency: coarse longitudinal queries replay stored
    # summaries, read here from disk on a freshly opened archive.
    started = time.perf_counter()
    archive.load_summaries(window_start, window_end)
    cold_query_seconds = time.perf_counter() - started

    print(json.dumps({
        "divisor": divisor,
        "population": population,
        "archived_days": len(report.written),
        "build_seconds": round(build_seconds, 3),
        "archive_bytes": report.bytes_written,
        "peak_rss_bytes": max(metrics.peak_rss_bytes, current_rss_bytes()),
        "cold_query_seconds": round(cold_query_seconds, 6),
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


def test_bench_scale_ladder(tmp_path):
    rungs = ladder_rungs()
    assert len(rungs) >= 2, "the ladder needs at least two rungs to compare"
    records = []
    for divisor in rungs:
        record = run_rung(divisor, str(tmp_path / f"rung-{divisor}"))
        assert record["archived_days"] == WINDOW_DAYS
        assert record["archive_bytes"] > 0
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

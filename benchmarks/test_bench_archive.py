"""Bench: cold archive build vs warm archive-backed Figure 1 replay.

Measures the three costs the archive trades between — building the
standard archive from scratch (cold), regenerating Figure 1 by live
simulation, and regenerating it by replaying the archive (warm) — and
records each as its own honest number in
``benchmarks/output/archive_speedup.json``, stamped with the host and
source tree it ran on (``env``).

The headline ratio is ``speedup_vs_live``: warm replay vs recomputing
the figure by live simulation, both measured end to end on a fresh
context.  The retired ``speedup_cold_vs_warm`` field folded the one-off
build cost into the numerator, which inflated the ratio with a cost the
query path never pays; the build is now reported separately as
``cold_build_seconds`` so amortisation arguments can be made explicitly.
"""

from __future__ import annotations

import json
import pathlib
import time

from _util import environment

from repro.archive import ArchiveBuilder
from repro.experiments import ExperimentContext, run_experiment
from repro.scenario import ScenarioSpec

#: Archive benches run without PKI (sweeps never read it) at a coarser
#: cadence than the artefact benches, so the cold build stays short.
ARCHIVE_SCALE = 250.0
CADENCE = 30

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: The kernel path answers Figure 1 from per-shard summaries without
#: building the world; anything under this ratio means the columnar
#: read path has regressed.  The assertion below is the archive-perf-gate
#: CI job's floor.
MIN_SPEEDUP_VS_LIVE = 10.0


def test_bench_archive_warm_vs_cold(benchmark, tmp_path):
    config = ScenarioSpec.resolve("baseline").with_config(
        scale=ARCHIVE_SCALE, with_pki=False
    ).compile()
    directory = str(tmp_path / "std")

    started = time.perf_counter()
    report = ArchiveBuilder(directory, config).build_standard(CADENCE)
    cold_build_seconds = time.perf_counter() - started
    # The cadence grid and the daily conflict window overlap, so the
    # second sub-build legitimately skips a handful of shared days.
    assert report.written

    started = time.perf_counter()
    live = run_experiment(
        "fig1", ExperimentContext(config=config, cadence_days=CADENCE)
    )
    live_seconds = time.perf_counter() - started

    def replay():
        return run_experiment(
            "fig1",
            ExperimentContext(
                config=config, cadence_days=CADENCE, archive=directory
            ),
        )

    replayed = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert replayed.render() == live.render()

    warm_seconds = benchmark.stats.stats.mean
    speedup_vs_live = live_seconds / warm_seconds
    record = {
        "experiment": "fig1",
        "scale": ARCHIVE_SCALE,
        "cadence_days": CADENCE,
        "archived_days": len(report.written),
        "archive_bytes": report.bytes_written,
        # One-off cost of collecting the archive.  Deliberately NOT
        # folded into any ratio: the query path never pays it.
        "cold_build_seconds": round(cold_build_seconds, 3),
        # End-to-end figure regeneration by live simulation vs by
        # replaying the archive through the summary kernel.
        "live_seconds": round(live_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "speedup_vs_live": round(speedup_vs_live, 2),
        "env": environment(),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "archive_speedup.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert speedup_vs_live >= MIN_SPEEDUP_VS_LIVE, (
        f"warm archive replay is only {speedup_vs_live:.1f}x live "
        f"(target >= {MIN_SPEEDUP_VS_LIVE:.0f}x)"
    )

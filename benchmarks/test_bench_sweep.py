"""Bench: the sweep engine — the five-year pass.

Times the SummaryReducer five-year pass through the engine at bench scale
with profiling on, verifies it matches an uninstrumented pass, and saves
the last round's profile rendering (snapshots/sec) alongside the
artefact outputs, under a header line with the host and source tree it
ran on (perfbench's env keys, as JSON).
"""

import json

from _util import ROUNDS_LIGHT, environment

from repro.archive.kernel import SummaryReducer
from repro.measurement.fast import FastCollector
from repro.measurement.metrics import SweepMetrics
from repro.measurement.sweep import SweepEngine
from repro.timeline import STUDY_END, STUDY_START

CADENCE = 7


def test_bench_sweep_engine(benchmark, bench_world, save):
    collector = FastCollector(bench_world)
    reducer = SummaryReducer()
    baseline = SweepEngine(collector).run(
        reducer, STUDY_START, STUDY_END, CADENCE
    )
    profiles = []

    def profiled():
        metrics = SweepMetrics()
        engine = SweepEngine(collector, metrics=metrics)
        with metrics.phase("full_sweep"):
            records = engine.run(
                reducer, STUDY_START, STUDY_END, CADENCE, phase="full_sweep"
            )
        profiles.append(metrics.render())
        return records

    records = benchmark.pedantic(profiled, rounds=ROUNDS_LIGHT, iterations=1)
    assert records == baseline
    header = "env: " + json.dumps(environment(), sort_keys=True)
    text = header + "\n" + profiles[-1]
    save("sweep_engine", text)
    print()
    print(text)

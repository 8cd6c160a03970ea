"""Bench: the sweep engine — chunked vs monolithic five-year pass.

Times the SummaryReducer five-year pass through the engine at bench scale,
verifies chunked output matches the monolithic pass, and saves the last
round's profile rendering (chunk count, snapshots/sec) alongside the
artefact outputs.
"""

from _util import ROUNDS_LIGHT

from repro.archive.kernel import SummaryReducer
from repro.measurement.fast import FastCollector
from repro.measurement.metrics import SweepMetrics
from repro.measurement.sweep import SweepEngine
from repro.timeline import STUDY_END, STUDY_START

CADENCE = 7


def test_bench_sweep_engine_chunked(benchmark, bench_world, save):
    collector = FastCollector(bench_world)
    reducer = SummaryReducer()
    baseline = SweepEngine(collector).run(
        reducer, STUDY_START, STUDY_END, CADENCE
    )
    profiles = []

    def chunked():
        metrics = SweepMetrics()
        engine = SweepEngine(collector, chunk_days=32, metrics=metrics)
        with metrics.phase("full_sweep"):
            records = engine.run(
                reducer, STUDY_START, STUDY_END, CADENCE, phase="full_sweep"
            )
        profiles.append(metrics.render())
        return records

    records = benchmark.pedantic(chunked, rounds=ROUNDS_LIGHT, iterations=1)
    assert records == baseline
    save("sweep_engine", profiles[-1])
    print()
    print(profiles[-1])

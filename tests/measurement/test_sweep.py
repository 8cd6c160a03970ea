"""Tests for repro.measurement.sweep: chunking, executors, equivalence."""

import datetime as dt

import pytest

from repro.archive.kernel import SummaryReducer
from repro.errors import MeasurementError
from repro.experiments import ExperimentContext
from repro.measurement.fast import FastCollector
from repro.measurement.sweep import (
    SerialChunkExecutor,
    SweepEngine,
    partition_chunks,
)
from repro.scenario import ScenarioSpec

#: The paper's footnote-8 measurement outage day (inside the study window).
OUTAGE = dt.date(2021, 3, 22)

START = dt.date(2021, 3, 15)
END = dt.date(2021, 4, 10)


@pytest.fixture(scope="module")
def engine_config():
    return ScenarioSpec.resolve("baseline").with_config(
        scale=5000.0, with_pki=False
    ).compile()


@pytest.fixture(scope="module")
def serial_context(engine_config):
    return ExperimentContext(config=engine_config, cadence_days=60, workers=1)


def sweep_series_equal(a, b):
    """Assert two SweepSeries are bit-identical."""
    for attr in ("ns_composition", "hosting_composition", "tld_composition"):
        pa, pb = getattr(a, attr).points(), getattr(b, attr).points()
        assert len(pa) == len(pb)
        for x, y in zip(pa, pb):
            assert (x.date, x.full, x.part, x.non) == (
                y.date, y.full, y.part, y.non,
            )
    sa, sb = list(a.tld_shares), list(b.tld_shares)
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert (x.date, x.total, x.counts) == (y.date, y.total, y.counts)


class TestPartition:
    def test_chunk_size_one(self):
        chunks = partition_chunks("2022-01-01", "2022-01-05", 1, 1)
        assert len(chunks) == 5
        assert all(chunk.days == 1 for chunk in chunks)
        assert chunks[0].start == chunks[0].end == dt.date(2022, 1, 1)
        assert chunks[-1].start == dt.date(2022, 1, 5)

    def test_chunk_larger_than_range(self):
        chunks = partition_chunks("2022-01-01", "2022-01-05", 1, 1000)
        assert len(chunks) == 1
        assert chunks[0].start == dt.date(2022, 1, 1)
        assert chunks[0].end == dt.date(2022, 1, 5)
        assert chunks[0].days == 5

    def test_boundaries_stay_on_step_grid(self):
        chunks = partition_chunks("2022-01-01", "2022-02-15", 7, 3)
        grid = {
            dt.date(2022, 1, 1) + dt.timedelta(days=7 * k) for k in range(7)
        }
        visited = []
        for chunk in chunks:
            day = chunk.start
            while day <= chunk.end:
                visited.append(day)
                day += dt.timedelta(days=chunk.step)
        assert set(visited) <= grid
        assert len(visited) == len(set(visited)) == 7  # exact cover, no dupes

    def test_single_day_range(self):
        chunks = partition_chunks("2022-01-01", "2022-01-01", 7, 4)
        assert len(chunks) == 1
        assert chunks[0].days == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(MeasurementError):
            partition_chunks("2022-01-02", "2022-01-01", 1, 1)
        with pytest.raises(MeasurementError):
            partition_chunks("2022-01-01", "2022-01-02", 0, 1)
        with pytest.raises(MeasurementError):
            partition_chunks("2022-01-01", "2022-01-02", 1, 0)


class TestRunValidation:
    """SweepEngine.run rejects degenerate ranges up front."""

    def test_inverted_range_rejected(self, tiny_world):
        engine = SweepEngine(FastCollector(tiny_world))
        with pytest.raises(MeasurementError, match="after its end"):
            engine.run(SummaryReducer(), "2022-01-02", "2022-01-01", 1)

    def test_non_positive_step_rejected(self, tiny_world):
        engine = SweepEngine(FastCollector(tiny_world))
        for step in (0, -3):
            with pytest.raises(MeasurementError, match="step must be >= 1"):
                engine.run(SummaryReducer(), START, END, step)

    def test_step_larger_than_range_measures_start_only(self, tiny_world):
        engine = SweepEngine(FastCollector(tiny_world))
        records = engine.run(SummaryReducer(), START, START + dt.timedelta(days=3), 365)
        assert [record.date for record in records] == [START]

    def test_partition_step_larger_than_range(self):
        chunks = partition_chunks("2022-01-01", "2022-01-04", 365, 10)
        assert len(chunks) == 1
        assert chunks[0].days == 1
        assert chunks[0].start == chunks[0].end == dt.date(2022, 1, 1)


class TestSerialChunking:
    """The in-process fallback: any chunking must be bit-identical."""

    def test_chunked_equals_unchunked(self, tiny_world):
        collector = FastCollector(tiny_world)
        reducer = SummaryReducer()
        baseline = SweepEngine(collector).run(reducer, START, END, 1)
        for chunk_days in (1, 2, 7, 1000):
            engine = SweepEngine(collector, chunk_days=chunk_days)
            records = engine.run(reducer, START, END, 1)
            assert records == baseline

    def test_outage_day_inside_chunk(self, tiny_world):
        """Chunk boundaries around the outage day don't change its sample."""
        collector = FastCollector(tiny_world)
        reducer = SummaryReducer()
        baseline = {
            r.date: r for r in SweepEngine(collector).run(reducer, START, END, 1)
        }
        normal = baseline[OUTAGE - dt.timedelta(days=1)]
        assert baseline[OUTAGE].measured_count < normal.measured_count
        for chunk_days in (1, 2, 5):
            engine = SweepEngine(collector, chunk_days=chunk_days)
            for record in engine.run(reducer, START, END, 1):
                assert record == baseline[record.date]

    def test_records_in_date_order(self, tiny_world):
        engine = SweepEngine(FastCollector(tiny_world), chunk_days=2)
        records = engine.run(SummaryReducer(), START, END, 3)
        dates = [record.date for record in records]
        assert dates == sorted(dates)

    def test_executor_without_config_stays_serial(self, tiny_world):
        """No scenario config -> workers cannot rebuild -> serial fallback."""
        engine = SweepEngine(FastCollector(tiny_world), workers=4, chunk_days=5)
        assert not engine.parallel_capable
        records = engine.run(SummaryReducer(), START, END, 1)
        baseline = SweepEngine(FastCollector(tiny_world)).run(
            SummaryReducer(), START, END, 1
        )
        assert records == baseline

    def test_bad_workers_rejected(self, tiny_world):
        with pytest.raises(MeasurementError):
            SweepEngine(FastCollector(tiny_world), workers=0)


class TestParallelEquivalence:
    """workers=4 across real processes must match workers=1 bit-for-bit."""

    def test_full_sweep_bit_identical(self, engine_config, serial_context):
        parallel_context = ExperimentContext(
            config=engine_config, cadence_days=60, workers=4
        )
        sweep_series_equal(
            serial_context.api.full_sweep(), parallel_context.api.full_sweep()
        )
        stat = parallel_context.metrics.get_phase("full_sweep")
        assert stat.notes["executor"] == "process"
        assert stat.notes["workers"] == 4

    def test_recent_window_bit_identical(self, engine_config, serial_context):
        parallel_context = ExperimentContext(
            config=engine_config, cadence_days=60, workers=2, chunk_days=17
        )
        serial_asn = list(serial_context.recent_asn_shares())
        parallel_asn = list(parallel_context.recent_asn_shares())
        assert len(serial_asn) == len(parallel_asn)
        for x, y in zip(serial_asn, parallel_asn):
            assert (x.date, x.total, x.counts) == (y.date, y.total, y.counts)
        sp = serial_context.recent_sanctioned_composition().points()
        pp = parallel_context.recent_sanctioned_composition().points()
        for x, y in zip(sp, pp):
            assert (x.date, x.full, x.part, x.non) == (
                y.date, y.full, y.part, y.non,
            )
        assert (
            serial_context.recent_listed_counts()
            == parallel_context.recent_listed_counts()
        )

    def test_direct_engine_parallel_records_equal(self, engine_config):
        """Engine-level check, outage day included in the parallel range."""
        serial_engine = SweepEngine(
            FastCollector(
                ExperimentContext(config=engine_config, workers=1).world
            )
        )
        context = ExperimentContext(config=engine_config, workers=2)
        reducer = SummaryReducer()
        baseline = serial_engine.run(reducer, START, END, 1)
        parallel = context.engine.run(reducer, START, END, 1)
        assert parallel == baseline

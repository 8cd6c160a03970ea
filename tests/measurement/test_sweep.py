"""Tests for repro.measurement.sweep: chunking, validation, equivalence."""

import datetime as dt

import pytest

from repro.archive.kernel import SummaryReducer
from repro.errors import MeasurementError
from repro.measurement.fast import FastCollector
from repro.measurement.sweep import SweepEngine, partition_chunks

#: The paper's footnote-8 measurement outage day (inside the study window).
OUTAGE = dt.date(2021, 3, 22)

START = dt.date(2021, 3, 15)
END = dt.date(2021, 4, 10)


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
    """Any chunking must be bit-identical."""

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

"""Tests for repro.measurement.sweep: validation, order, equivalence."""

import datetime as dt

import pytest

from repro.archive.kernel import SummaryReducer
from repro.errors import MeasurementError
from repro.measurement.fast import FastCollector
from repro.measurement.sweep import SweepEngine

#: The paper's footnote-8 measurement outage day (inside the study window).
OUTAGE = dt.date(2021, 3, 22)

START = dt.date(2021, 3, 15)
END = dt.date(2021, 4, 10)


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


class TestSerialChunking:
    """A run is one pass, in date order, independent of where it starts."""

    def test_outage_day_inside_chunk(self, tiny_world):
        """A run starting at or just before the outage day keeps its sample."""
        collector = FastCollector(tiny_world)
        reducer = SummaryReducer()
        baseline = {
            r.date: r for r in SweepEngine(collector).run(reducer, START, END, 1)
        }
        normal = baseline[OUTAGE - dt.timedelta(days=1)]
        assert baseline[OUTAGE].measured_count < normal.measured_count
        for first in (OUTAGE - dt.timedelta(days=1), OUTAGE):
            records = SweepEngine(collector).run(reducer, first, END, 1)
            assert records
            for record in records:
                assert record == baseline[record.date]

    def test_records_in_date_order(self, tiny_world):
        engine = SweepEngine(FastCollector(tiny_world))
        records = engine.run(SummaryReducer(), START, END, 3)
        dates = [record.date for record in records]
        assert dates == sorted(dates)

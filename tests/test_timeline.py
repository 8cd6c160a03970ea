"""Tests for repro.timeline: study dates, day indexing, phases, clock."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro import timeline
from repro.errors import TimelineError


class TestConstants:
    def test_study_period_is_1803_days(self):
        assert timeline.STUDY_DAYS == 1803

    def test_study_bounds(self):
        assert timeline.STUDY_START == dt.date(2017, 6, 18)
        assert timeline.STUDY_END == dt.date(2022, 5, 25)

    def test_conflict_inside_study(self):
        assert timeline.STUDY_START < timeline.CONFLICT_START < timeline.STUDY_END

    def test_sanctions_after_conflict(self):
        assert timeline.SANCTIONS_EFFECTIVE > timeline.CONFLICT_START

    def test_cert_window_inside_study(self):
        assert timeline.CERT_WINDOW_START >= timeline.STUDY_START
        assert timeline.CERT_WINDOW_END <= timeline.STUDY_END


class TestAsDate:
    def test_passthrough(self):
        date = dt.date(2020, 1, 1)
        assert timeline.as_date(date) is date

    def test_iso_string(self):
        assert timeline.as_date("2022-02-24") == timeline.CONFLICT_START

    def test_day_index_int(self):
        assert timeline.as_date(0) == timeline.STUDY_START

    def test_bad_string(self):
        with pytest.raises(TimelineError):
            timeline.as_date("not-a-date")

    def test_bad_type(self):
        with pytest.raises(TimelineError):
            timeline.as_date(3.14)


class TestDayIndex:
    def test_day_zero(self):
        assert timeline.day_index(timeline.STUDY_START) == 0

    def test_last_day(self):
        assert timeline.day_index(timeline.STUDY_END) == timeline.STUDY_DAYS - 1

    def test_negative_allowed(self):
        assert timeline.day_index(dt.date(2017, 6, 17)) == -1

    @given(st.integers(min_value=-5000, max_value=5000))
    def test_roundtrip(self, index):
        assert timeline.day_index(timeline.from_day_index(index)) == index


class TestIterDays:
    def test_inclusive_bounds(self):
        days = list(timeline.iter_days("2022-01-01", "2022-01-03"))
        assert days == [dt.date(2022, 1, 1), dt.date(2022, 1, 2), dt.date(2022, 1, 3)]

    def test_step(self):
        days = list(timeline.iter_days("2022-01-01", "2022-01-10", step=7))
        assert days == [dt.date(2022, 1, 1), dt.date(2022, 1, 8)]

    def test_full_study_count(self):
        assert len(list(timeline.iter_days())) == timeline.STUDY_DAYS

    def test_empty_range_rejected(self):
        with pytest.raises(TimelineError):
            list(timeline.iter_days("2022-01-02", "2022-01-01"))

    def test_zero_step_rejected(self):
        with pytest.raises(TimelineError):
            list(timeline.iter_days("2022-01-01", "2022-01-02", step=0))


class TestPhases:
    def test_day_before_conflict(self):
        assert timeline.phase_of("2022-02-23") is timeline.Phase.PRE_CONFLICT

    def test_conflict_day_is_pre_sanctions(self):
        assert timeline.phase_of("2022-02-24") is timeline.Phase.PRE_SANCTIONS

    def test_sanctions_boundary_inclusive(self):
        assert timeline.phase_of("2022-03-26") is timeline.Phase.PRE_SANCTIONS

    def test_post_sanctions(self):
        assert timeline.phase_of("2022-03-27") is timeline.Phase.POST_SANCTIONS

    @given(st.integers(min_value=0, max_value=timeline.STUDY_DAYS - 1))
    def test_every_study_day_has_exactly_one_phase(self, index):
        phase = timeline.phase_of(index)
        assert phase in timeline.Phase


class TestDayClock:
    def test_starts_at_study_start(self):
        assert timeline.DayClock().date == timeline.STUDY_START

    def test_advance(self):
        clock = timeline.DayClock()
        clock.advance_to("2020-01-01")
        assert clock.date == dt.date(2020, 1, 1)

    def test_tick(self):
        clock = timeline.DayClock("2020-01-01")
        clock.tick(3)
        assert clock.date == dt.date(2020, 1, 4)

    def test_no_backwards(self):
        clock = timeline.DayClock("2020-01-02")
        with pytest.raises(TimelineError):
            clock.advance_to("2020-01-01")

    def test_no_negative_tick(self):
        with pytest.raises(TimelineError):
            timeline.DayClock().tick(-1)

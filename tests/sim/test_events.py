"""Tests for repro.sim.events: the columnar event log."""

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.sim.events import DomainEventLog, Field, InfraEvent


@pytest.fixture
def log():
    events = DomainEventLog()
    events.add(10, 0, Field.DNS, 5)
    events.add(20, 0, Field.DNS, 7)
    events.add(15, 1, Field.HOSTING, 3)
    events.add(15, 2, Field.DNS, 9)
    events.finalize()
    return events


class TestStateAt:
    def test_before_any_event(self, log):
        base = np.zeros(4, dtype=np.int32)
        assert (log.state_at(base, Field.DNS, 5) == base).all()

    def test_after_first_event(self, log):
        base = np.zeros(4, dtype=np.int32)
        state = log.state_at(base, Field.DNS, 12)
        assert state[0] == 5

    def test_last_write_wins(self, log):
        base = np.zeros(4, dtype=np.int32)
        state = log.state_at(base, Field.DNS, 25)
        assert state[0] == 7

    def test_fields_independent(self, log):
        base = np.zeros(4, dtype=np.int32)
        dns = log.state_at(base, Field.DNS, 25)
        hosting = log.state_at(base, Field.HOSTING, 25)
        assert dns[1] == 0
        assert hosting[1] == 3
        assert hosting[0] == 0

    def test_base_not_mutated(self, log):
        base = np.zeros(4, dtype=np.int32)
        log.state_at(base, Field.DNS, 25)
        assert (base == 0).all()


class TestApplyWindow:
    def test_incremental_sweep_matches_replay(self, log):
        base = np.zeros(4, dtype=np.int32)
        state = base.copy()
        for day in range(0, 30):
            log.apply_window(state, Field.DNS, day - 1, day)
            expected = log.state_at(base, Field.DNS, day)
            assert (state == expected).all(), f"day {day}"

    def test_window_with_multiple_events_same_domain(self):
        events = DomainEventLog()
        events.add(10, 0, Field.DNS, 1)
        events.add(11, 0, Field.DNS, 2)
        events.add(12, 0, Field.DNS, 3)
        events.finalize()
        state = np.zeros(1, dtype=np.int32)
        events.apply_window(state, Field.DNS, 9, 12)
        assert state[0] == 3


class TestLifecycle:
    def test_add_after_finalize_rejected(self, log):
        with pytest.raises(ScenarioError):
            log.add(30, 0, Field.DNS, 1)

    def test_query_before_finalize_rejected(self):
        events = DomainEventLog()
        events.add(1, 0, Field.DNS, 1)
        with pytest.raises(ScenarioError):
            events.event_days()

    def test_event_days(self, log):
        assert list(log.event_days()) == [10, 15, 20]

    def test_finalize_idempotent(self, log):
        log.finalize()
        assert len(log) == 4


class TestAddMany:
    """One bulk append per move equals one ``add`` per pick, in pick order."""

    MOVES = [
        (30, np.array([7, 2, 9], dtype=np.int64), Field.DNS, 4),
        ("2017-07-01", np.array([], dtype=np.int64), Field.HOSTING, 1),
        (12, np.array([2, 5], dtype=np.intp), Field.HOSTING, 2),
        (30, np.array([3], dtype=np.int64), Field.HOSTING, 0),
        (12, np.array([9, 7], dtype=np.int64), Field.DNS, 6),
    ]

    def test_finalized_arrays_equal_per_pick_adds(self):
        bulk, single = DomainEventLog(), DomainEventLog()
        for day, picks, field, plan in self.MOVES:
            bulk.add_many(day, picks, field, plan)
            for index in picks:
                single.add(day, int(index), field, plan)
        assert len(bulk) == len(single) == 8
        bulk.finalize()
        single.finalize()
        for ours, theirs in zip(bulk._arrays(), single._arrays()):
            assert ours.dtype == theirs.dtype
            assert ours.tolist() == theirs.tolist()
        base = np.zeros(10, dtype=np.int32)
        for field in Field:
            assert (bulk.state_at(base, field, 40) == single.state_at(base, field, 40)).all()

    def test_add_many_after_finalize_rejected(self, log):
        with pytest.raises(ScenarioError):
            log.add_many(30, np.array([1]), Field.DNS, 2)


class TestInfraEvent:
    def test_fields(self):
        event = InfraEvent(
            "2022-03-03",
            "netnod",
            ns_moves=[("ns4-cloud.nic.ru", "rucenter")],
        )
        assert event.ns_moves == (("ns4-cloud.nic.ru", "rucenter"),)
        assert event.day == 1719  # days from 2017-06-18 to 2022-03-03

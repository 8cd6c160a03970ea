"""Tests for repro.sim.flows: the flow engine."""

import copy

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.registry.population import DomainPopulation, PopulationConfig
from repro.rng import derive_rng
from repro.sim.events import Field
from repro.sim.flows import Flow, FlowEngine, Pulse
from repro.timeline import day_index

PLAN_IDS = {
    Field.DNS: {"a": 0, "b": 1, "c": 2},
    Field.HOSTING: {"x": 0, "y": 1},
}


@pytest.fixture(scope="module")
def population():
    return DomainPopulation(PopulationConfig(seed=11, initial_count=2000))


def engine(population, seed=1):
    return FlowEngine(population, PLAN_IDS, derive_rng(seed, "flow-test"))


class TestValidation:
    def test_empty_flow_window_rejected(self):
        with pytest.raises(ScenarioError):
            Flow(Field.DNS, ["a"], "b", 1.0, "2020-01-02", "2020-01-02")

    def test_zero_pp_rejected(self):
        with pytest.raises(ScenarioError):
            Flow(Field.DNS, ["a"], "b", 0.0, "2020-01-01", "2020-01-02")

    def test_pulse_needs_exactly_one_quantum(self):
        with pytest.raises(ScenarioError):
            Pulse(Field.DNS, ["a"], "b", "2020-01-01")
        with pytest.raises(ScenarioError):
            Pulse(Field.DNS, ["a"], "b", "2020-01-01", fraction=0.5, count=3)

    def test_pulse_fraction_bounds(self):
        with pytest.raises(ScenarioError):
            Pulse(Field.DNS, ["a"], "b", "2020-01-01", fraction=1.5)


class TestFlowExecution:
    def test_flow_moves_approximately_total_pp(self, population):
        n = len(population)
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),  # everyone on plan "a"
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        flow = Flow(Field.DNS, ["a"], "b", 10.0, "2018-01-01", "2020-01-01")
        events, final = engine(population).run(base, [flow], [], 1803)
        active = population.active_mask("2020-06-01")
        moved_share = (final[Field.DNS][active] == 1).mean()
        assert 0.06 < moved_share < 0.15  # ~10pp with churn noise

    def test_unknown_plan_key_rejected(self, population):
        n = len(population)
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        flow = Flow(Field.DNS, ["a"], "missing", 1.0, "2018-01-01", "2018-02-01")
        with pytest.raises(ScenarioError):
            engine(population).run(base, [flow], [], 1803)


class TestPulseExecution:
    def test_fraction_pulse(self, population):
        n = len(population)
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        pulse = Pulse(Field.HOSTING, ["x"], "y", "2019-01-01", fraction=0.5)
        events, final = engine(population).run(base, [], [pulse], 1803)
        active = population.active_mask("2019-01-02")
        share = (final[Field.HOSTING][active] == 1).mean()
        assert 0.45 < share < 0.55

    def test_count_pulse_exact(self, population):
        n = len(population)
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        pulse = Pulse(Field.HOSTING, ["x"], "y", "2019-01-01", count=17)
        events, final = engine(population).run(base, [], [pulse], 1803)
        assert (final[Field.HOSTING] == 1).sum() == 17

    def test_exclusion_respected(self, population):
        n = len(population)
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        protected = np.zeros(n, dtype=bool)
        protected[:50] = True
        pulse = Pulse(Field.HOSTING, ["x"], "y", "2019-01-01", fraction=1.0)
        _, final = engine(population).run(
            base, [], [pulse], 1803, exclude=protected
        )
        assert (final[Field.HOSTING][:50] == 0).all()

    def test_pulse_order_within_day(self, population):
        """Two same-day pulses apply sequentially in list order."""
        n = len(population)
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        pulses = [
            Pulse(Field.HOSTING, ["x"], "y", "2019-01-01", fraction=1.0),
            Pulse(Field.HOSTING, ["y"], "x", "2019-01-01", fraction=1.0),
        ]
        _, final = engine(population).run(base, [], pulses, 1803)
        active = population.active_mask("2019-01-02")
        # Everything moved x->y then back y->x.
        assert (final[Field.HOSTING][active] == 0).all()


class TestDeterminism:
    def test_same_seed_same_events(self, population):
        n = len(population)

        def run(seed):
            base = {
                Field.DNS: np.zeros(n, dtype=np.int32),
                Field.HOSTING: np.zeros(n, dtype=np.int32),
            }
            flow = Flow(Field.DNS, ["a"], "b", 5.0, "2018-01-01", "2019-01-01")
            events, final = engine(population, seed).run(base, [flow], [], 1803)
            return final[Field.DNS].copy()

        assert (run(3) == run(3)).all()
        assert not (run(3) == run(4)).all()


class TestCandidates:
    """The plan lookup table picks exactly the ``np.isin`` candidates."""

    CASES = [
        (["a"], "b"),
        (["a", "a"], "c"),  # repeated source id
        (["b", "c", "b"], "a"),
        (["a", "b"], "b"),  # destination is also a source
        (["a", "b", "c"], "c"),
    ]

    @staticmethod
    def _random_run(population, seed, sources, dest, **quantum):
        n = len(population)
        draws = np.random.default_rng(seed)
        base = {
            Field.DNS: draws.integers(0, 3, size=n).astype(np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        exclude = draws.random(n) < 0.1
        pulse = Pulse(Field.DNS, sources, dest, "2019-01-01", **quantum)
        events, final = engine(population, seed).run(
            base, [], [pulse], 1803, exclude=exclude
        )
        day = pulse.day
        active = (population.created <= day) & (day < population.deleted) & ~exclude
        source_ids = [PLAN_IDS[Field.DNS][key] for key in sources]
        reference = np.flatnonzero(active & np.isin(base[Field.DNS], source_ids))
        return base[Field.DNS], events, final[Field.DNS], reference

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("sources,dest", CASES)
    def test_full_pulse_moves_reference_candidates(self, population, seed, sources, dest):
        base, events, final, reference = self._random_run(
            population, seed, sources, dest, fraction=1.0
        )
        assert len(reference) > 0
        assert len(events) == len(reference)
        expected = base.copy()
        expected[reference] = PLAN_IDS[Field.DNS][dest]
        assert (final == expected).all()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("sources,dest", CASES)
    def test_count_pulse_draws_from_reference_candidates(
        self, population, seed, sources, dest
    ):
        base, events, final, reference = self._random_run(
            population, seed, sources, dest, count=40
        )
        # Same sorted candidates, so the engine's draw is the reference draw.
        picks = derive_rng(seed, "flow-test").choice(reference, size=40, replace=False)
        expected = base.copy()
        expected[picks] = PLAN_IDS[Field.DNS][dest]
        assert len(events) == 40
        assert (final == expected).all()

    def test_unknown_plan_id_in_base_rejected(self, population):
        n = len(population)
        base = {
            Field.DNS: np.full(n, 3, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        pulse = Pulse(Field.DNS, ["a"], "b", "2019-01-01", fraction=1.0)
        with pytest.raises(ScenarioError):
            engine(population).run(base, [], [pulse], 1803)


def reference_run(population, base, flows, pulses, horizon_days, exclude, seed):
    """The flow pass with every mask rebuilt from scratch on every move.

    Returns the ``(day, domain, field, plan)`` events in order and the
    final state arrays.
    """
    rng = derive_rng(seed, "flow-test")
    state = {field: array.copy() for field, array in base.items()}
    events = []
    event_days = sorted(
        {
            day
            for flow in flows
            for day in range(max(flow.start_day, 0), min(flow.end_day, horizon_days))
        }
        | {pulse.day for pulse in pulses}
    )

    def move(day, active, quantum, fraction=None, count=None):
        sources = [PLAN_IDS[quantum.field][key] for key in quantum.sources]
        dest = PLAN_IDS[quantum.field][quantum.dest]
        candidates = np.flatnonzero(active & np.isin(state[quantum.field], sources))
        if len(candidates) == 0:
            return
        if fraction is not None:
            take = int(round(fraction * len(candidates)))
        else:
            take = min(count, len(candidates))
        if take <= 0:
            return
        picks = rng.choice(candidates, size=take, replace=False)
        events.extend((day, int(index), int(quantum.field), dest) for index in picks)
        state[quantum.field][picks] = dest

    for day in event_days:
        active = (population.created <= day) & (day < population.deleted) & ~exclude
        if not active.any():
            continue
        for flow in flows:
            if flow.start_day <= day < flow.end_day:
                expected = flow.total_pp / 100.0 * int(active.sum()) / flow.duration
                moves = int(rng.poisson(expected))
                if moves:
                    move(day, active, flow, count=moves)
        for pulse in pulses:
            if pulse.day == day:
                move(day, active, pulse, fraction=pulse.fraction, count=pulse.count)
    return events, state


class TestMembership:
    """Masks kept as moves apply pick what masks rebuilt per move pick."""

    def test_run_matches_full_recompute(self, population):
        n = len(population)
        draws = np.random.default_rng(5)
        base = {
            Field.DNS: draws.integers(0, 3, size=n).astype(np.int32),
            Field.HOSTING: draws.integers(0, 2, size=n).astype(np.int32),
        }
        exclude = draws.random(n) < 0.1
        flows = [
            # Two flows on one field: "b" is one's destination and the
            # other's source, and their windows overlap.
            Flow(Field.DNS, ["a"], "b", 30.0, "2018-03-01", "2018-03-15"),
            Flow(Field.DNS, ["b", "c"], "c", 20.0, "2018-03-10", "2018-03-20"),
            # Weeks later, after births and deaths, the first set again.
            Flow(Field.DNS, ["a"], "b", 10.0, "2019-06-01", "2019-06-05"),
            Flow(Field.HOSTING, ["x"], "y", 5.0, "2018-03-05", "2018-03-12"),
        ]
        pulses = [
            Pulse(Field.DNS, ["b"], "a", "2018-03-12", count=25),
            Pulse(Field.DNS, ["c"], "a", "2018-11-01", fraction=0.3),
            Pulse(Field.HOSTING, ["y"], "x", "2020-02-01", fraction=0.5),
        ]
        log, final = engine(population, seed=8).run(
            base, flows, pulses, 1803, exclude=exclude
        )
        events, expected = reference_run(
            population, base, flows, pulses, 1803, exclude, seed=8
        )
        # Births and deaths fall in the gaps between event days.
        gaps = [
            ("2018-03-20", "2018-11-01"),
            ("2018-11-01", "2019-06-01"),
            ("2019-06-05", "2020-02-01"),
        ]
        for start, end in gaps:
            start, end = day_index(start), day_index(end)
            assert ((population.created > start) & (population.created < end)).any()
            assert ((population.deleted > start) & (population.deleted < end)).any()
        assert len(events) > 100
        assert list(zip(log._days, log._domains, log._fields, log._values)) == events
        for field in (Field.DNS, Field.HOSTING):
            assert (final[field] == expected[field]).all()
        assert not exclude[[domain for _, domain, _, _ in events]].any()

    def test_domain_deleted_before_created_never_moves(self, population):
        n = len(population)
        odd = copy.copy(population)
        odd.created = population.created.copy()
        odd.deleted = population.deleted.copy()
        # Rows whose deletion day precedes an earlier event day than
        # their creation day: their death flips before their birth.
        rows = np.flatnonzero(population.created > 600)[::3]
        odd.deleted[rows] = 100
        base = {
            Field.DNS: np.zeros(n, dtype=np.int32),
            Field.HOSTING: np.zeros(n, dtype=np.int32),
        }
        exclude = np.zeros(n, dtype=bool)
        flows = [Flow(Field.DNS, ["a"], "b", 1.0, "2017-09-20", "2017-10-01")]
        pulses = [Pulse(Field.DNS, ["a"], "c", "2020-01-01", fraction=1.0)]
        log, final = engine(odd, seed=2).run(base, flows, pulses, 1803, exclude=exclude)
        events, expected = reference_run(odd, base, flows, pulses, 1803, exclude, seed=2)
        assert len(rows) > 0
        assert list(zip(log._days, log._domains, log._fields, log._values)) == events
        assert (final[Field.DNS] == expected[Field.DNS]).all()
        assert (final[Field.DNS][rows] == 0).all()

"""Tests for repro.faults.plan: determinism, budgets, firing semantics.

These are pure-logic tests (no worlds, no processes) and run in tier-1;
the self-healing integration suites live next door under ``-m faults``.
"""

import pickle

import pytest

from repro.errors import FaultError
from repro.faults import (
    CORRUPT,
    CRASH,
    IO_ERROR,
    SERVICE_SITES,
    SITES,
    STALL,
    FaultPlan,
    FaultSpec,
    TransientIOError,
    WorkerCrashed,
    default_plan,
    service_plan,
    sync_fault_metrics,
)
from repro.measurement.metrics import SweepMetrics

KEYS = [f"2022-03-{day:02d}.shard#{attempt}" for day in range(1, 29) for attempt in range(3)]


def decisions(plan, site="shard.write"):
    return [plan.decide(site, key) for key in KEYS]


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(42, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        b = FaultPlan(42, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        assert decisions(a) == decisions(b)

    def test_decisions_are_stateless(self):
        # Reading the grid twice (events accumulating in between) must
        # not shift later decisions.
        plan = FaultPlan(42, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        first = decisions(plan)
        for key in KEYS:
            if plan.decide("shard.write", key) is not None:
                with pytest.raises(TransientIOError):
                    plan.check("shard.write", key)
        assert decisions(plan) == first

    def test_different_seeds_differ(self):
        a = FaultPlan(1, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        b = FaultPlan(2, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        assert decisions(a) != decisions(b)

    def test_sites_roll_independently(self):
        plan = FaultPlan(
            7,
            {
                "shard.write": FaultSpec(IO_ERROR, 0.3),
                "manifest.write": FaultSpec(IO_ERROR, 0.3),
            },
        )
        solo = FaultPlan(7, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        assert decisions(plan, "shard.write") == decisions(solo, "shard.write")
        assert decisions(plan, "shard.write") != decisions(plan, "manifest.write")

    def test_retry_rerolls_under_fresh_key(self):
        # At a moderate rate, some faulted key must pass on a later
        # attempt — the retry loop's convergence guarantee.
        plan = FaultPlan(42, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
        recovered = False
        for day in range(1, 29):
            rolls = [
                plan.decide("shard.write", f"2022-03-{day:02d}.shard#{attempt}")
                for attempt in range(4)
            ]
            if rolls[0] is not None and None in rolls[1:]:
                recovered = True
        assert recovered

    def test_event_sequence_reproducible(self, fault_seed):
        def run(seed):
            plan = FaultPlan(seed, {"shard.write": FaultSpec(IO_ERROR, 0.3)})
            for key in KEYS:
                try:
                    plan.check("shard.write", key)
                except TransientIOError:
                    pass
            return plan.events

        assert run(fault_seed) == run(fault_seed)
        assert run(fault_seed)  # the rate makes at least one firing certain


class TestBudgetAndTargeting:
    def test_budget_caps_per_instance(self):
        plan = FaultPlan(1, {"shard.write": FaultSpec(IO_ERROR, 1.0, max_injections=3)})
        fired = 0
        for key in KEYS:
            try:
                plan.check("shard.write", key)
            except TransientIOError:
                fired += 1
        assert fired == 3
        assert plan.injected("shard.write") == 3

    def test_match_targets_one_key(self):
        plan = FaultPlan(
            1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match="2022-03-04.shard#0")}
        )
        assert plan.decide("sweep.chunk", "2022-03-04.shard#0") == CRASH
        assert plan.decide("sweep.chunk", "2022-03-04.shard#1") is None
        assert plan.decide("sweep.chunk", "2022-03-05.shard#0") is None

    def test_disabled_plan_is_a_noop(self):
        plan = FaultPlan(
            1, {"shard.write": FaultSpec(IO_ERROR, 1.0)}, enabled=False
        )
        assert decisions(plan) == [None] * len(KEYS)
        plan.check("shard.write", KEYS[0])
        assert plan.injected() == 0


class TestFiring:
    def test_io_error_raises_transient(self):
        plan = FaultPlan(1, {"shard.read": FaultSpec(IO_ERROR, 1.0)})
        with pytest.raises(TransientIOError, match="shard.read"):
            plan.check("shard.read", "x#0")

    def test_crash_raises_injected_crash(self):
        plan = FaultPlan(1, {"sweep.chunk": FaultSpec(CRASH, 1.0)})
        with pytest.raises(WorkerCrashed):
            plan.check("sweep.chunk", "x#0")

    def test_stall_sleeps_then_continues(self):
        plan = FaultPlan(
            1, {"sweep.chunk": FaultSpec(STALL, 1.0, stall_seconds=0.0)}
        )
        plan.check("sweep.chunk", "x#0")
        assert plan.events == [("sweep.chunk", "x#0", STALL)]

    def test_corrupt_flips_exactly_one_bit(self):
        plan = FaultPlan(9, {"shard.write.bytes": FaultSpec(CORRUPT, 1.0)})
        data = bytes(range(64))
        mutated = plan.corrupt_bytes("shard.write.bytes", "x#0", data)
        assert mutated != data
        assert len(mutated) == len(data)
        diff = [(a ^ b) for a, b in zip(data, mutated) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1
        again = FaultPlan(9, {"shard.write.bytes": FaultSpec(CORRUPT, 1.0)})
        assert again.corrupt_bytes("shard.write.bytes", "x#0", data) == mutated

    def test_corrupt_bytes_passes_clean_when_not_scheduled(self):
        plan = FaultPlan(9, {"shard.write.bytes": FaultSpec(CORRUPT, 0.0)})
        data = b"payload"
        assert plan.corrupt_bytes("shard.write.bytes", "x#0", data) == data

    def test_corrupt_via_check_is_rejected(self):
        plan = FaultPlan(9, {"shard.write.bytes": FaultSpec(CORRUPT, 1.0)})
        with pytest.raises(FaultError, match="corrupt_bytes"):
            plan.check("shard.write.bytes", "x#0")


class TestValidationAndPickling:
    def test_unknown_site_refused(self):
        with pytest.raises(FaultError, match="unknown injection site"):
            FaultPlan(1, {"nonsense.site": FaultSpec(IO_ERROR)})

    def test_unknown_kind_refused(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_bad_rate_refused(self):
        with pytest.raises(FaultError, match="rate"):
            FaultSpec(IO_ERROR, rate=1.5)

    def test_pickle_round_trip_resets_process_state(self):
        plan = FaultPlan(3, {"shard.write": FaultSpec(IO_ERROR, 1.0)})
        with pytest.raises(TransientIOError):
            plan.check("shard.write", "x#0")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed
        assert clone.sites == plan.sites
        assert clone.enabled is plan.enabled
        assert clone.events == [] and clone.reported == 0
        # Fresh budget, same decisions.
        assert decisions(clone) == decisions(FaultPlan(3, plan.sites))


class TestDefaultPlanAndMetrics:
    def test_default_plan_covers_every_pipeline_site(self):
        plan = default_plan(5, rate=0.25)
        assert set(plan.sites) == set(SITES) - set(SERVICE_SITES)

    def test_service_plan_covers_every_service_site(self):
        plan = service_plan(5, rate=0.25, match="headline")
        assert set(plan.sites) == set(SERVICE_SITES)
        for site in plan.sites:
            assert plan.sites[site].match == "headline"

    def test_sync_fault_metrics_reports_deltas_once(self):
        plan = FaultPlan(1, {"shard.write": FaultSpec(IO_ERROR, 1.0)})
        metrics = SweepMetrics()
        with pytest.raises(TransientIOError):
            plan.check("shard.write", "x#0")
        sync_fault_metrics(plan, metrics)
        assert metrics.recovery_count("faults_injected") == 1
        sync_fault_metrics(plan, metrics)  # no new events: no double count
        assert metrics.recovery_count("faults_injected") == 1
        with pytest.raises(TransientIOError):
            plan.check("shard.write", "y#0")
        sync_fault_metrics(plan, metrics)
        assert metrics.recovery_count("faults_injected") == 2

    def test_sync_handles_missing_plan_or_metrics(self):
        sync_fault_metrics(None, SweepMetrics())
        sync_fault_metrics(FaultPlan(1), None)

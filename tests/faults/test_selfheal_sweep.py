"""Self-healing sweep tests: injected crashes, pool degradation.

Marked ``faults`` (excluded from tier-1): these sweep a real 1:5000
world, fork process pools, and hard-kill workers.  Every test asserts
the recovered results are bit-identical to an undisturbed run — the
engine's self-healing guarantee.
"""

import datetime as dt
import hashlib

import numpy as np
import pytest

from repro.errors import RecoveryError
from repro.faults import CRASH, FaultPlan, FaultSpec
from repro.measurement.fast import FastCollector
from repro.measurement.metrics import SweepMetrics
from repro.measurement.sweep import SweepEngine
from repro.sim.conflict import build_world

from .conftest import HardExitPlan

pytestmark = pytest.mark.faults

START = dt.date(2021, 3, 15)
END = dt.date(2021, 4, 10)


class DigestReducer:
    """Hashes each day's full measured state (strong identity check)."""

    def reduce_day(self, snapshot):
        digest = hashlib.sha256()
        digest.update(snapshot.date.isoformat().encode())
        measured = np.asarray(snapshot.measured, dtype=np.int64)
        digest.update(measured.tobytes())
        digest.update(snapshot.dns_ids[measured].astype(np.int32).tobytes())
        digest.update(snapshot.hosting_ids[measured].astype(np.int32).tobytes())
        return (snapshot.date, digest.hexdigest())


@pytest.fixture(scope="module")
def world(fault_config):
    return build_world(fault_config)


@pytest.fixture(scope="module")
def baseline(world, fault_config):
    """The undisturbed sweep every recovery path must reproduce."""
    engine = SweepEngine(FastCollector(world), config=fault_config, chunk_days=4)
    return engine.run(DigestReducer(), START, END, 1)


def make_engine(world, fault_config, faults, workers=1, **kwargs):
    metrics = SweepMetrics()
    engine = SweepEngine(
        FastCollector(world),
        config=fault_config,
        workers=workers,
        chunk_days=4,
        metrics=metrics,
        faults=faults,
        **kwargs,
    )
    return engine, metrics


class TestSerialSelfHealing:
    def test_targeted_crash_retries_every_chunk(self, world, fault_config, baseline):
        # Every chunk's first attempt crashes; the retry (attempt #1)
        # falls outside the match and succeeds.
        plan = FaultPlan(1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match="#0")})
        engine, metrics = make_engine(world, fault_config, plan)
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline
        chunks = 7  # 27 days in chunks of 4
        assert metrics.recovery_count("chunk_retries") == chunks
        assert metrics.recovery_count("faults_injected") == chunks
        assert metrics.recovery_count("degraded_to_serial") == 0

    def test_random_crashes_converge(self, world, fault_config, baseline, fault_seed):
        plan = FaultPlan(fault_seed, {"sweep.chunk": FaultSpec(CRASH, 0.3)})
        engine, metrics = make_engine(
            world, fault_config, plan, max_chunk_retries=6, retry_backoff=0.0
        )
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline

    def test_retry_budget_exhaustion_raises(self, world, fault_config):
        # No match clause: every attempt of every chunk crashes.
        plan = FaultPlan(1, {"sweep.chunk": FaultSpec(CRASH, 1.0)})
        engine, _ = make_engine(world, fault_config, plan, retry_backoff=0.0)
        with pytest.raises(RecoveryError, match="failed 4 times"):
            engine.run(DigestReducer(), START, END, 1)


class TestProcessSelfHealing:
    def test_crashed_chunk_is_resubmitted(self, world, fault_config, baseline):
        plan = FaultPlan(1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match="#0")})
        engine, metrics = make_engine(world, fault_config, plan, workers=2)
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline
        assert metrics.recovery_count("chunk_retries") == 7
        assert metrics.recovery_count("degraded_to_serial") == 0

    def test_killed_workers_degrade_to_serial(self, world, fault_config, baseline):
        # A hard kill takes the whole pool down (BrokenProcessPool), and
        # resubmission never bumps the attempt counter, so every pool
        # round dies the same way until the engine gives up on pools and
        # finishes serially — where the crash is survivable and the
        # retry succeeds.
        plan = HardExitPlan(
            1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match="#0")}
        )
        engine, metrics = make_engine(
            world, fault_config, plan, workers=2, retry_backoff=0.0
        )
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline
        assert metrics.recovery_count("degraded_to_serial") == 1
        assert metrics.recovery_count("pool_failures") == 3
        assert metrics.recovery_count("chunk_retries") > 0

    def test_pool_round_crash_recreates_pool(self, world, fault_config, baseline):
        # The pool-level fault fires in the driving process before the
        # first round's pool is created; the second round proceeds.
        plan = FaultPlan(
            1, {"sweep.pool": FaultSpec(CRASH, 1.0, match="round#0")}
        )
        engine, metrics = make_engine(
            world, fault_config, plan, workers=2, retry_backoff=0.0
        )
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline
        assert metrics.recovery_count("pool_failures") == 1
        assert metrics.recovery_count("degraded_to_serial") == 0

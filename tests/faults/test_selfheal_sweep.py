"""Self-healing sweep tests: injected run crashes and retries.

Marked ``faults`` (excluded from tier-1): these sweep a real 1:5000
world under injected faults.  Every test asserts
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
def baseline(world):
    """The undisturbed sweep every recovery path must reproduce."""
    engine = SweepEngine(FastCollector(world))
    return engine.run(DigestReducer(), START, END, 1)


def make_engine(world, faults, **kwargs):
    metrics = SweepMetrics()
    engine = SweepEngine(
        FastCollector(world),
        metrics=metrics,
        faults=faults,
        **kwargs,
    )
    return engine, metrics


class TestSerialSelfHealing:
    def test_targeted_crash_retries_every_chunk(self, world, baseline):
        # The run's first attempt crashes; the retry (attempt #1) falls
        # outside the match and succeeds.
        plan = FaultPlan(1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match="#0")})
        engine, metrics = make_engine(world, plan)
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline
        assert metrics.recovery_count("chunk_retries") == 1
        assert metrics.recovery_count("faults_injected") == 1

    def test_random_crashes_converge(self, world, baseline, fault_seed):
        plan = FaultPlan(fault_seed, {"sweep.chunk": FaultSpec(CRASH, 0.3)})
        engine, metrics = make_engine(
            world, plan, max_chunk_retries=6, retry_backoff=0.0
        )
        records = engine.run(DigestReducer(), START, END, 1)
        assert records == baseline

    def test_retry_budget_exhaustion_raises(self, world):
        # No match clause: every attempt crashes.
        plan = FaultPlan(1, {"sweep.chunk": FaultSpec(CRASH, 1.0)})
        engine, _ = make_engine(world, plan, retry_backoff=0.0)
        with pytest.raises(RecoveryError, match="failed 4 times"):
            engine.run(DigestReducer(), START, END, 1)

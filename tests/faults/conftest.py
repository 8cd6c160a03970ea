"""Fixtures for the fault-injection suites.

The self-healing tests (marked ``faults``) sweep real worlds at the
sweep-test scale (1:5000).  ``fault_seed`` honours the
``REPRO_FAULT_SEED`` environment variable so the CI fault matrix can
run the identical suite under several seeds.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import FaultPlan, WorkerCrashed
from repro.sim import ConflictScenarioConfig


@pytest.fixture(scope="session")
def fault_seed():
    return int(os.environ.get("REPRO_FAULT_SEED", "101"))


@pytest.fixture(scope="session")
def fault_config():
    return ConflictScenarioConfig(scale=5000.0, with_pki=False)


class HardExitPlan(FaultPlan):
    """A fault plan whose injected crashes hard-exit pool workers.

    A real worker death (an OOM kill, a segfault) takes the whole
    process pool down, and the sweep engine must recover from that as
    well as from exceptions a worker hands back.  In any process other
    than the one that built the plan, an injected
    :class:`WorkerCrashed` becomes ``os._exit``; in the driving process
    (the serial fallback) it stays a survivable exception.  Decisions
    are the base plan's, unchanged.
    """

    def __init__(self, seed, sites=None, enabled=True) -> None:
        super().__init__(seed, sites, enabled)
        self.driver_pid = os.getpid()

    def __getstate__(self):
        return {**super().__getstate__(), "driver_pid": self.driver_pid}

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self.driver_pid = state["driver_pid"]

    def check(self, site: str, key: str = "") -> None:
        try:
            super().check(site, key)
        except WorkerCrashed:
            if os.getpid() != self.driver_pid:
                os._exit(73)
            raise

"""Fixtures for the fault-injection suites.

The self-healing tests (marked ``faults``) sweep real worlds at the
sweep-test scale (1:5000).  ``fault_seed`` honours the
``REPRO_FAULT_SEED`` environment variable so the CI fault matrix can
run the identical suite under several seeds.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import ConflictScenarioConfig


@pytest.fixture(scope="session")
def fault_seed():
    return int(os.environ.get("REPRO_FAULT_SEED", "101"))


@pytest.fixture(scope="session")
def fault_config():
    return ConflictScenarioConfig(scale=5000.0, with_pki=False)

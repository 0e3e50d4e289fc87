"""Shared test fixtures.

The config layer reads ``REPRO_*`` environment variables at *resolution
time* (every call into the default session), so ambient variables from
the invoking shell — or from a CI leg that deliberately exports
conflicting ones — would silently reshape every test's region lengths
and cache bounds.  The autouse fixture below gives each test a clean
environment; tests that exercise the env layer set their own variables
through ``monkeypatch.setenv`` on top of it.
"""

import pytest

from repro.config import CONFIG_FILE_ENV, ENV_VARS
from repro.predictors.batched import BACKEND_ENV
from repro.session import BATCH_REPLAY_ENV
from repro.sim.sweeps import SWEEP_INSTRUCTIONS_ENV, SWEEP_WARMUP_ENV


@pytest.fixture(autouse=True)
def _clean_repro_env(monkeypatch):
    for var in (*ENV_VARS.values(), CONFIG_FILE_ENV,
                BACKEND_ENV, BATCH_REPLAY_ENV,
                SWEEP_INSTRUCTIONS_ENV, SWEEP_WARMUP_ENV):
        monkeypatch.delenv(var, raising=False)

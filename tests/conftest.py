"""Shared fixtures for the test suite.

``rng`` is the single entry point for randomness in stochastic tests
(backend equivalence, randomized networks): it derives a deterministic
seed from the test's node id, so a failure always reproduces by re-running
that test — and ``REPRO_TEST_SEED=<n>`` forces one global seed to explore
other draws.
"""

import os
import zlib

import numpy as np
import pytest


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')")


def seed_for(name: str) -> int:
    """Deterministic per-test seed (overridable via REPRO_TEST_SEED)."""
    env = os.environ.get("REPRO_TEST_SEED")
    if env is not None:
        return int(env)
    return zlib.adler32(name.encode())


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Per-test deterministic numpy Generator for stochastic tests."""
    return np.random.default_rng(seed_for(request.node.nodeid))

"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rng2():
    return np.random.default_rng(987654)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: slow emulator-level tests")
    # a deprecated call in the package fails the suite instead of
    # scrolling past in the warnings summary
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning:repro")

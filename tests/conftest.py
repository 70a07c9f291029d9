"""Shared fixtures.  Models are session-scoped so their convolution memos
fill once across the suite; tests must not mutate them."""
import time

import pytest

import hyperorlicz as hz

SESSION_T0 = time.perf_counter()


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_T0


@pytest.fixture(scope="session")
def dr03():
    return hz.dunkl_ramirez(0.3, 32)


@pytest.fixture(scope="session")
def dr05():
    return hz.dunkl_ramirez(0.5, 32)


@pytest.fixture(scope="session")
def su2m():
    return hz.su2(32)


@pytest.fixture(scope="session")
def zline():
    return hz.integer_group(64)


@pytest.fixture(scope="session")
def all_models(dr03, dr05, su2m, zline):
    return {"dr03": dr03, "dr05": dr05, "su2": su2m, "integers": zline}


@pytest.fixture(scope="session")
def doubling_weight():
    return hz.step_weight(0, 2.0, 0.5)

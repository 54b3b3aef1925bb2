import numpy as np
import pytest
from hypothesis import settings

from fel.harmonic import solve_ndhs
from fel.ifs import Similitude, build

from helpers import make_system

# Property tests draw the same few examples on every run and keep no example
# database, so tier-1 stays deterministic and bounded in time.
settings.register_profile("fel", derandomize=True, deadline=None, max_examples=8,
                          database=None)
settings.load_profile("fel")


@pytest.fixture(scope="session")
def gasket2_l8():
    return make_system("gasket2", 8)


@pytest.fixture(scope="session")
def gasket2_hs(gasket2_l8):
    return solve_ndhs(gasket2_l8)


@pytest.fixture(scope="session")
def gasket3_l8():
    return make_system("gasket3", 8)


@pytest.fixture(scope="session")
def gasket3_hs(gasket3_l8):
    return solve_ndhs(gasket3_l8)


@pytest.fixture(scope="session")
def snowflake_l5():
    return make_system("snowflake", 5)


@pytest.fixture(scope="session")
def snowflake_hs(snowflake_l5):
    return solve_ndhs(snowflake_l5)


@pytest.fixture(scope="session")
def interval_l5():
    # The unit interval as a two-map nested fractal; a valid non-preset input.
    maps = [
        Similitude(scale=2.0, rotation=np.eye(1), translation=np.zeros(1)),
        Similitude(scale=2.0, rotation=np.eye(1), translation=np.array([0.5])),
    ]
    return build(maps, 5, name="interval")

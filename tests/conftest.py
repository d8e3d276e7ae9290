import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hartree_lab.exponents import ModelParams
from hartree_lab.grid import RadialGrid
from hartree_lab.groundstate import solve_ground_state
from hartree_lab.riesz import build_kernel


@pytest.fixture(scope="session")
def grid_small():
    return RadialGrid(24.0, 383)


@pytest.fixture(scope="session")
def grid_mid():
    return RadialGrid(40.0, 1023)


@pytest.fixture(scope="session")
def grid_desk():
    # 2(n+1) a power of four: the orthonormal DST scaling is exact
    return RadialGrid(40.0, 2047)


@pytest.fixture(scope="session")
def kern2_mid(grid_mid):
    return build_kernel(2.0, grid_mid)


@pytest.fixture(scope="session")
def kern2_desk(grid_desk):
    return build_kernel(2.0, grid_desk)


@pytest.fixture(scope="session")
def params32():
    return ModelParams(3.0, 2.0)


@pytest.fixture(scope="session")
def gs32_mid(params32, grid_mid, kern2_mid):
    return solve_ground_state(params32, grid_mid, kern2_mid)


@pytest.fixture(scope="session")
def gs32_desk(params32, grid_desk, kern2_desk):
    return solve_ground_state(params32, grid_desk, kern2_desk)

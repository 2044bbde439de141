import importlib.util
import os

import numpy as np
import pytest

from stochmaxwell.capacity import CapacityOperator
from stochmaxwell.geometry import Grid3, SphereMesh
from stochmaxwell.sphharm import VshBasis

K_DESK = 2.0
R_DESK = 1.0
RP_DESK = 1.3
LMAX_DESK = 12


@pytest.fixture(scope="session")
def desk_mesh():
    return SphereMesh(R_DESK, LMAX_DESK)


@pytest.fixture(scope="session")
def desk_basis(desk_mesh):
    return VshBasis(desk_mesh)


@pytest.fixture(scope="session")
def desk_capacity(desk_mesh):
    return CapacityOperator(K_DESK, desk_mesh)


@pytest.fixture(scope="session")
def desk_grid():
    return Grid3.for_ball(RP_DESK, 33)


def rel_err(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def load_bench(name):
    """The module `bench/<name>.py`, loaded by path: the benchmark's files
    are not installed."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

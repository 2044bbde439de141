import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import stochmaxwell
from stochmaxwell import cgo, ensemble, forward, reconstruct
from stochmaxwell.capacity import CapacityOperator
from stochmaxwell.geometry import (
    Bump,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    VectorFieldC3,
)
from stochmaxwell.sphharm import VshBasis

MODULES = ["stochmaxwell"] + [
    f"stochmaxwell.{m.name}" for m in pkgutil.iter_modules(stochmaxwell.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_benchmark_tracer_targets_exist():
    """Every layer the benchmark tracer wraps exists under its name, so a
    refactor that drops one fails here rather than only in a traced run.
    The tracer module is loaded by path and not installed."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def mod(name):
        return importlib.import_module(f"stochmaxwell.{name}")

    missing = []
    for span, (owner, attr, _) in tracer.FUNCTIONS.items():
        if not callable(getattr(mod(owner), attr, None)):
            missing.append(span)
    for span, (owner, cls_name, meth) in tracer.METHODS.items():
        if not callable(getattr(getattr(mod(owner), cls_name, None), meth, None)):
            missing.append(span)
    assert not missing, f"tracer targets missing from the program: {missing}"


def test_cli_import_leaves_out_scipy_sparse():
    """Importing the command line in a fresh interpreter loads no
    scipy.sparse (nor the scipy.linalg it pulls in): the fixed-point solver
    imports GMRES only when it hands off to it."""
    src = os.path.dirname(os.path.dirname(stochmaxwell.__file__))
    code = "import sys, stochmaxwell.cli; print({'scipy.sparse', 'scipy.linalg'} & set(sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "set()"


def test_reconstruction_calls_the_traced_cgo_layers():
    """The reconstruction builds its CGO pairs and sphere samples through
    the very functions the benchmark tracer wraps, so their spans and counts
    cover the reconstruct stage."""
    assert reconstruct.build_zeta_eta is cgo.build_zeta_eta
    assert reconstruct.cgo_on_sphere is cgo.cgo_on_sphere


def test_every_contrast_solve_is_one_fixed_point_solve(monkeypatch):
    """The full-grid Maxwell solve and the CGO remainder solve in a medium
    each go through the one fixed-point solver, so the Neumann iteration and
    its GMRES hand-off are one policy."""
    solve = forward.solve_fixed_point
    assert cgo.solve_fixed_point is solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(forward, "solve_fixed_point", counted)
    monkeypatch.setattr(cgo, "solve_fixed_point", counted)
    medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
    grid = Grid3.for_ball(1.3, 10)
    source = VectorFieldC3(grid, np.ones((3,) + grid.dims))
    forward.MaxwellSolver(2.0, medium, grid).solve(source)
    assert len(calls) == 1
    zeta, eta, _ = cgo.build_zeta_eta(np.array([0.5, 0.0, 0.0]), 3.0, 2.0)
    cgo.CgoRemainderSolver(2.0, medium, grid).solve(zeta[0], eta[0])
    assert len(calls) == 2


def test_cgo_solution_stores_one_correction():
    """A CGO solution holds its correction W once; the split W = f zeta + V
    is derived from it, not stored."""
    names = tuple(f.name for f in dataclasses.fields(cgo.CgoSolution))
    assert names == ("zeta", "eta", "grid", "W", "residual")


def test_every_cgo_correction_comes_from_the_remainder_solver(monkeypatch):
    """`solve_cgo_remainder` and an inhomogeneous `reconstruct_sigma` take
    every correction from `CgoRemainderSolver.solve`: one call for the
    column, one per (xi, member) for the reconstruction, whose estimated xi
    are the nodes 0 .. n // 2 of the lattice."""
    solve = cgo.CgoRemainderSolver.solve
    calls = []

    def counted(self, zeta, eta):
        calls.append(1)
        return solve(self, zeta, eta)

    monkeypatch.setattr(cgo.CgoRemainderSolver, "solve", counted)
    medium = MediumSpec((Bump((0.0, 0.0, 0.0), 0.9, 0.1),), ball_radius=1.0)
    grid = Grid3.for_ball(1.3, 8)
    sol = cgo.solve_cgo_remainder(np.array([0.5, 0.0, 0.0]), 3.0, 2.0, 1, medium, grid)
    assert np.any(sol.W) and len(calls) == 1
    capacity = CapacityOperator(2.0, VshBasis(SphereMesh(1.0, 4), 4))
    traces = np.random.default_rng(8).standard_normal((4, capacity.basis.mesh.n_nodes, 3))
    result = reconstruct.reconstruct_sigma(traces, capacity, 2.0, 1.3, medium, grid,
                                           epsilon=0.1)
    assert len(calls) == 1 + 2 * (len(result.xi_nodes) // 2 + 1)


def test_ensemble_of_a_medium_is_one_map_build(monkeypatch):
    """A medium bump takes the route of every medium: one trace-map build
    (the class the benchmark tracer wraps) and no full-grid Maxwell solve."""
    assert ensemble.HomogeneousTraceMap is forward.HomogeneousTraceMap
    calls = {"solve": 0, "build": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(forward.MaxwellSolver, "solve",
                        counted("solve", forward.MaxwellSolver.solve))
    monkeypatch.setattr(forward.HomogeneousTraceMap, "__init__",
                        counted("build", forward.HomogeneousTraceMap.__init__))
    medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
    sigma = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)
    grid, mesh = Grid3.for_ball(1.3, 10), SphereMesh(1.0, 4)
    ensemble.generate_ensemble(2.0, medium, sigma, grid, mesh, 3, 1)
    assert calls == {"solve": 0, "build": 1}

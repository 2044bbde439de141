import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import stochmaxwell
from stochmaxwell import cgo, ensemble, forward, reconstruct, verify
from stochmaxwell.capacity import CapacityOperator
from stochmaxwell.geometry import (
    Bump,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    evaluate_on_grid,
)

from conftest import load_bench

MODULES = ["stochmaxwell"] + [
    f"stochmaxwell.{m.name}" for m in pkgutil.iter_modules(stochmaxwell.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _names_read(tree, skip=None) -> set:
    """Every name a module reads, as a bare name or an attribute, outside
    the subtree `skip`."""
    read, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def test_every_export_has_a_caller_in_the_program():
    """No public API that only tests call: each name in a module's `__all__`
    is read somewhere in `src/` outside its own definition and outside the
    package `__init__.py`, which only re-exports. Module-level names only,
    not methods. The benchmark tracer's targets are exempt: they are the
    layers the benchmark times, under those names, whoever calls them."""
    tracer = load_bench("tracer")
    exempt = {target[1] for target in (*tracer.FUNCTIONS.values(), *tracer.METHODS.values())}
    names = [n for n in MODULES if n != "stochmaxwell"]
    trees = {n: ast.parse(open(importlib.import_module(n).__file__).read()) for n in names}
    read = {n: _names_read(tree) for n, tree in trees.items()}
    unread = []
    for name, tree in trees.items():
        for export in set(importlib.import_module(name).__all__) - exempt:
            if any(export in read[n] for n in names if n != name):
                continue
            own = next((d for d in tree.body if getattr(d, "name", None) == export), None)
            if export not in _names_read(tree, own):
                unread.append(f"{name}.{export}")
    assert not unread, f"exported but read by no program code: {sorted(unread)}"


def test_benchmark_tracer_targets_exist():
    """Every layer the benchmark tracer wraps exists under its name, so a
    refactor that drops one fails here rather than only in a traced run.
    The tracer module is loaded by path and not installed."""
    tracer = load_bench("tracer")

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
    # the trace-map counter reads the map's n_cells and mesh.n_nodes
    grid, mesh = Grid3.for_ball(1.3, 9), SphereMesh(1.0, 4)
    sigma = SourceStrength((Bump((0.0, 0.0, 0.0), 0.9, 0.1),), ball_radius=1.0)
    tmap = forward.HomogeneousTraceMap(2.0, grid, evaluate_on_grid(sigma, grid) > 0,
                                       mesh)
    assert isinstance(tmap.n_cells, int) and tmap.mesh.n_nodes == mesh.n_nodes
    J = np.ones((2, tmap.n_cells, 3))
    flops = tracer._trace_map_flops((tmap, J), {}, tmap.traces(J))
    assert flops["forward.trace_map_apply.gflop_computed"] > 0


def test_cli_import_leaves_out_scipy_sparse():
    """Importing the command line in a fresh interpreter loads no
    scipy.sparse (nor the scipy.linalg it pulls in): the fixed-point solver
    imports GMRES only when it hands off to it. A whole inhomogeneous
    `reconstruct_sigma` call (measured epsilon, remainder solves, Grams and
    their quadratic forms) loads neither: its linear algebra is numpy's."""
    src = os.path.dirname(os.path.dirname(stochmaxwell.__file__))
    code = """if True:
        import sys
        import numpy as np
        import stochmaxwell.cli
        loaded = {'scipy.sparse', 'scipy.linalg'} & set(sys.modules)
        from stochmaxwell import CapacityOperator, Grid3, MediumSpec, SphereMesh, Bump
        capacity = CapacityOperator(2.0, SphereMesh(1.0, 6))
        rng = np.random.default_rng(8)
        shape = (20, capacity.mesh.n_nodes, 2)
        traces = 0.01 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        medium = MediumSpec((Bump((0.0, 0.0, 0.0), 0.9, 0.1),), ball_radius=1.0)
        stochmaxwell.reconstruct_sigma(traces, capacity, R_prime=1.3, medium=medium,
                                       grid=Grid3.for_ball(1.3, 8))
        print(loaded, {'scipy.sparse', 'scipy.linalg'} & set(sys.modules))
    """
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "set() set()"


def test_reconstruction_calls_the_traced_cgo_layers():
    """The reconstruction builds its CGO pairs and sphere samples through
    the very functions the benchmark tracer wraps, so their spans and counts
    cover the reconstruct stage."""
    assert reconstruct.build_zeta_eta is cgo.build_zeta_eta
    assert reconstruct.cgo_on_sphere is cgo.cgo_on_sphere


def test_verify_pairs_through_the_reconstruction_functional():
    """The ibp row of `stochmaxwell verify` samples its plane waves and
    pairs them with the trace through the reconstruction's own functions, so
    it certifies the route the Fourier samples take and cannot drift to a
    private copy."""
    assert verify.dual_functional_vector is reconstruct.dual_functional_vector
    assert verify.cgo_on_sphere is cgo.cgo_on_sphere


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
    forward.MaxwellSolver(2.0, medium, grid).solve(np.ones((3,) + grid.dims))
    assert len(calls) == 1
    zeta, eta, _ = cgo.build_zeta_eta(np.array([0.5, 0.0, 0.0]), 3.0, 2.0)
    cgo.CgoRemainderSolver(2.0, medium, grid).solve(zeta[:1], eta[:1])
    assert len(calls) == 2


def test_cgo_solution_stores_one_correction():
    """A CGO solution holds its correction W once; the split W = f zeta + V
    is derived from it, not stored."""
    names = tuple(f.name for f in dataclasses.fields(cgo.CgoSolution))
    assert names == ("zeta", "eta", "grid", "W", "residual")


def test_every_cgo_correction_comes_from_the_remainder_solver(monkeypatch):
    """`solve_cgo_remainder` and an inhomogeneous `reconstruct_sigma` take
    every correction from `CgoRemainderSolver.solve`, which takes a block
    of columns per call: one column for `solve_cgo_remainder`, one per
    (xi, member) for the reconstruction, whose estimated xi are the nodes
    0 .. n // 2 of the lattice."""
    solve = cgo.CgoRemainderSolver.solve
    calls = []

    def counted(self, zeta, eta):
        calls.extend(zeta)
        return solve(self, zeta, eta)

    monkeypatch.setattr(cgo.CgoRemainderSolver, "solve", counted)
    medium = MediumSpec((Bump((0.0, 0.0, 0.0), 0.9, 0.1),), ball_radius=1.0)
    grid = Grid3.for_ball(1.3, 8)
    sol = cgo.solve_cgo_remainder(np.array([0.5, 0.0, 0.0]), 3.0, 2.0, 1, medium, grid)
    assert np.any(sol.W) and len(calls) == 1
    capacity = CapacityOperator(2.0, SphereMesh(1.0, 4))
    traces = np.random.default_rng(8).standard_normal((4, capacity.mesh.n_nodes, 2))
    result = reconstruct.reconstruct_sigma(traces, capacity, 1.3, medium, grid,
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

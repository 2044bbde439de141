import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import gmres

from stochmaxwell.forward import (
    HomogeneousTraceMap,
    MaxwellSolver,
    SolverError,
    curl_grid,
    extract_trace,
    neumann_solve,
    noise_amplitude,
    noise_positions,
    noise_values,
)
from stochmaxwell.geometry import (
    Bump,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    VectorFieldC3,
    evaluate_on_grid,
)
from stochmaxwell.greens import FreeConvolver, dyadic_green
from stochmaxwell.verify import electric_dipole_field, pde_residual

from conftest import rel_err

K = 2.0


@pytest.fixture(scope="module")
def grid():
    return Grid3.for_ball(1.3, 33)


@pytest.fixture(scope="module")
def sigma():
    return SourceStrength((Bump((0.0, 0.1, 0.0), 0.5, 0.2),), ball_radius=1.0)


def solve(medium, src, **kwargs):
    return MaxwellSolver(K, medium, src.grid).solve(src, **kwargs)


class TestNoise:
    def test_bit_identical_regeneration(self, grid, sigma):
        sig = evaluate_on_grid(sigma, grid).values.real
        a = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=7)
        b = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=7)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self, grid, sigma):
        sig = evaluate_on_grid(sigma, grid).values.real
        a = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=0)
        b = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=1)
        assert not np.array_equal(a, b)

    def test_support_cells_match_full_grid(self, grid, sigma):
        """The support form scales only the masked cells and returns the
        same bits as the full-grid draw restricted to them."""
        sig = evaluate_on_grid(sigma, grid).values.real
        amp = noise_amplitude(sig, grid.spacing)
        mask = sig > 0
        assert 0 < mask.sum() < mask.size
        positions = noise_positions(mask)
        for index in (0, 9):
            full = noise_values(amp, 4, index)
            assert np.array_equal(noise_values(amp[mask], 4, index, positions), full[:, mask])

    def test_support_respected(self, grid, sigma):
        sig = evaluate_on_grid(sigma, grid).values.real
        J = noise_values(noise_amplitude(sig, grid.spacing), 1, 0)
        assert np.all(J[:, sig == 0] == 0)

    def test_cell_variance_scaling(self, sigma):
        # E|J|^2 per cell = 3 sigma / h^3: white-noise normalization
        rng_checks = []
        for n in (17, 33):
            g = Grid3.for_ball(1.3, n)
            sig = evaluate_on_grid(sigma, g).values.real
            mask = sig > 0.05
            acc = 0.0
            M = 200
            for r in range(M):
                J = noise_values(noise_amplitude(sig, g.spacing), 5, r)
                acc += np.mean(np.abs(J[:, mask]) ** 2 / sig[mask])
            rng_checks.append(acc / M * g.spacing ** 3)
        assert rng_checks[0] == pytest.approx(1.0, rel=0.05)
        assert rng_checks[1] == pytest.approx(1.0, rel=0.05)


class TestSolver:
    def test_homogeneous_dipole_matches_analytic(self, grid):
        """Discrete delta current reproduces the Green-tensor column."""
        medium = MediumSpec(ball_radius=1.0)
        h = grid.spacing
        c = grid.dims[0] // 2
        src_pos = grid.nodes()[:, c, c, c]
        p = np.array([0.3, -1.0, 0.5])
        src = np.zeros((3,) + grid.dims, dtype=np.complex128)
        src[:, c, c, c] = 1j * K * p / grid.cell_volume
        sol = solve(medium, VectorFieldC3(grid, src))
        probe_idx = (c + 7, c, c)  # 7h from the source along x
        x = grid.nodes()[(slice(None),) + probe_idx]
        E_ref, _ = electric_dipole_field(K, src_pos, p, np.array([x]))
        assert rel_err(sol.field.values[(slice(None),) + probe_idx], E_ref[0]) < 2e-2

    def test_pde_residual_second_order(self):
        """Interior residual of converged solves scales like h^2 for a
        well-resolved source."""
        medium = MediumSpec(ball_radius=1.0)
        res = {}
        for n in (25, 33, 49):
            g = Grid3.for_ball(1.3, n)
            x, y, z = g.nodes()
            prof = np.exp(-(x ** 2 + y ** 2 + z ** 2) / (2 * 0.35 ** 2))
            src = VectorFieldC3(g, np.stack([prof, np.zeros_like(prof), 0.4 * prof]) + 0j)
            sol = solve(medium, src)
            res[n] = pde_residual(sol.field, K, medium, src)
        # C h^2 with a stable constant: scaling between successive grids
        h25, h33, h49 = (Grid3.for_ball(1.3, n).spacing for n in (25, 33, 49))
        c_vals = [res[25] / h25 ** 2, res[33] / h33 ** 2, res[49] / h49 ** 2]
        assert max(c_vals) / min(c_vals) < 2.0
        assert max(c_vals) < 10.0

    def test_inhomogeneous_converges_and_differs(self, grid, sigma):
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
        prof = evaluate_on_grid(sigma, grid).values
        src = VectorFieldC3(grid, np.stack([prof, prof, prof]))
        hom = solve(MediumSpec(ball_radius=1.0), src)
        inh = solve(medium, src)
        assert inh.residual <= 1e-10
        assert rel_err(inh.field.values, hom.field.values) > 1e-3

    def test_gmres_hand_off_converges(self, sigma, monkeypatch):
        """At k = 6 with a 0.95 contrast the Neumann iteration stagnates, and
        the solve hands off to GMRES: the field meets the tolerance in the
        Lippmann-Schwinger equation rebuilt on a fresh convolver, and
        `iterations` counts the GMRES inner iterations on top of the Neumann
        ones (each applies the operator once; the right-hand side, GMRES's
        opening and closing residuals and the final check are the other
        applications)."""
        k, grid = 6.0, Grid3.for_ball(1.3, 13)
        medium = MediumSpec((Bump((0.0, 0.0, 0.0), 0.95, 0.95),), ball_radius=1.0)
        prof = evaluate_on_grid(sigma, grid).values
        src = VectorFieldC3(grid, np.stack([prof, prof, prof]))
        conv = FreeConvolver(k, grid)
        km = k ** 2 * evaluate_on_grid(medium, grid).values.real[None]
        b = conv.apply_resolvent_array(src.values)

        def ls(E):
            return E + conv.apply_resolvent_array(km * E)

        _, n_neumann, stalled, _ = neumann_solve(ls, b, 1e-10, 60)
        assert stalled > 0.1

        solver = MaxwellSolver(k, medium, grid)
        applies = []
        apply = solver.convolver.apply_resolvent_array

        def counting(f):
            applies.append(1)
            return apply(f)

        monkeypatch.setattr(solver.convolver, "apply_resolvent_array", counting)
        sol = solver.solve(src)
        assert rel_err(ls(sol.field.values), b) <= 1e-10
        assert n_neumann < sol.iterations
        assert len(applies) - 4 <= sol.iterations < len(applies)

    def test_solver_failure_raises(self, grid, sigma):
        """An unattainable tolerance must raise instead of silently
        returning a field that misses the requested accuracy."""
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.9),), ball_radius=1.0)
        prof = evaluate_on_grid(sigma, grid).values
        src = VectorFieldC3(grid, np.stack([prof, prof, prof]))
        with pytest.raises(SolverError) as exc:
            solve(medium, src, tol=1e-18, max_iter=2)
        assert exc.value.residual_history


class TestTrace:
    def test_tangentiality(self, grid):
        mesh = SphereMesh(1.0, 10)
        rng = np.random.default_rng(8)
        E = VectorFieldC3(
            grid,
            rng.standard_normal((3,) + grid.dims)
            + 1j * rng.standard_normal((3,) + grid.dims),
        )
        tr = extract_trace(E, mesh)
        assert tr.shape == (mesh.n_nodes, 3)
        assert np.max(np.abs(np.sum(tr * mesh.normals, axis=1))) < 1e-12

    def test_sphere_outside_grid_rejected(self):
        g = Grid3.cube(0.9, 17)
        mesh = SphereMesh(1.0, 6)
        E = VectorFieldC3(g, np.zeros((3,) + g.dims, dtype=complex))
        with pytest.raises(ValueError):
            extract_trace(E, mesh)


class TestCurl:
    def test_fourth_order_on_plane_wave(self):
        g = Grid3.cube(1.0, 33)
        d = np.array([1.0, 2.0, -0.5])
        eta = np.array([0.2, 0.1, 0.8])
        phase = np.exp(1j * np.tensordot(d, g.nodes(), axes=1))
        F = phase[None] * eta[:, None, None, None]
        want = np.cross(1j * d, eta)[:, None, None, None] * phase[None]
        got = curl_grid(F, g.spacing)
        sl = (slice(None), slice(4, -4), slice(4, -4), slice(4, -4))
        assert rel_err(got[sl], want[sl]) < 2e-5


class TestHomogeneousTraceMap:
    def test_matches_volume_solver(self, grid, sigma):
        """Green-superposition traces equal solver-plus-interpolation traces
        within interpolation tolerance."""
        mesh = SphereMesh(1.0, 10)
        sig = evaluate_on_grid(sigma, grid).values.real
        mask = sig > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh)
        J = noise_values(noise_amplitude(sig, grid.spacing), 12, 0)
        direct = tmap.traces(J[:, mask].T[None])[0]
        src = VectorFieldC3(grid, 1j * K * J.astype(complex))
        solved = extract_trace(solve(MediumSpec(ball_radius=1.0), src).field, mesh)
        # trilinear interpolation of the near-singular field limits agreement
        assert rel_err(solved, direct) < 0.05

    def test_linearity_in_current(self, grid, sigma):
        mesh = SphereMesh(1.0, 8)
        sig = evaluate_on_grid(sigma, grid).values.real
        mask = sig > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh)
        rng = np.random.default_rng(1)
        J = rng.standard_normal((2, int(mask.sum()), 3))
        both = tmap.traces(J)
        summed = tmap.traces((J[0] + 2.0 * J[1])[None])[0]
        assert np.allclose(summed, both[0] + 2.0 * both[1], atol=1e-12)

    def test_matches_direct_green_sum(self, sigma):
        """The map is the direct sum h^3 sum_c (ik G(x_n, y_c) J_c) x nu_n,
        where dyadic_green already is ik G = ik g I + (i/k) hess g; N = 162 is
        not a multiple of the build's node block."""
        g = Grid3.for_ball(1.3, 13)
        mesh = SphereMesh(1.0, 8)
        mask = evaluate_on_grid(sigma, g).values.real > 0
        tmap = HomogeneousTraceMap(K, g, mask, mesh)
        coords = g.nodes()[:, mask].T
        J = np.random.default_rng(3).standard_normal((1, len(coords), 3))
        want = np.zeros((mesh.n_nodes, 3), dtype=np.complex128)
        for n, (x, nu) in enumerate(zip(mesh.nodes, mesh.normals)):
            E = sum(dyadic_green(K, x, y) @ Jc for y, Jc in zip(coords, J[0]))
            want[n] = np.cross(g.cell_volume * E, nu)
        assert rel_err(tmap.traces(J)[0], want) < 1e-12

    def test_complex_current(self, sigma):
        g = Grid3.for_ball(1.3, 17)
        mask = evaluate_on_grid(sigma, g).values.real > 0
        tmap = HomogeneousTraceMap(K, g, mask, SphereMesh(1.0, 6))
        rng = np.random.default_rng(4)
        shape = (3, tmap.n_cells, 3)
        J = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = tmap.traces(J.real) + 1j * tmap.traces(J.imag)
        assert rel_err(tmap.traces(J), want) < 1e-14
        assert np.linalg.norm(tmap.traces(1j * J.real)) > 0

    def test_build_peak_memory_within_twice_the_map(self):
        """The blocked build holds the map plus one node block, not a dense
        per-pair tensor and its temporaries."""
        g = Grid3.for_ball(1.3, 17)
        sig = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)
        mask = evaluate_on_grid(sig, g).values.real > 0
        mesh = SphereMesh(1.0, 8)
        tracemalloc.start()
        try:
            tmap = HomogeneousTraceMap(K, g, mask, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        map_bytes = 3 * tmap.n_cells * 3 * mesh.n_nodes * 16
        assert peak <= 2 * map_bytes, f"build peak {peak / map_bytes:.2f} x the map"

    def test_map_holds_two_complex_columns_per_node(self, sigma):
        """The built map keeps the two tangential trace components of each
        node, 3C * 2N complex values, not a third (normal) column."""
        g = Grid3.for_ball(1.3, 13)
        mask = evaluate_on_grid(sigma, g).values.real > 0
        mesh = SphereMesh(1.0, 8)
        tracemalloc.start()
        try:
            tmap = HomogeneousTraceMap(K, g, mask, mesh)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        node_bytes = 3 * tmap.n_cells * 16  # one complex column over the cells
        assert 2 * mesh.n_nodes * node_bytes <= held < 2.5 * mesh.n_nodes * node_bytes

    def test_traces_are_tangential(self, sigma):
        g = Grid3.for_ball(1.3, 13)
        mesh = SphereMesh(1.0, 8)
        mask = evaluate_on_grid(sigma, g).values.real > 0
        tmap = HomogeneousTraceMap(K, g, mask, mesh)
        T = tmap.traces(np.random.default_rng(7).standard_normal((4, tmap.n_cells, 3)))
        assert np.max(np.abs(np.einsum("mni,ni->mn", T, mesh.normals))) <= 1e-14 * np.max(np.abs(T))


# the benchmark's medium bump
BENCH_MEDIUM = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
BENCH_SIGMA = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)


def scattering_reference(k, medium, sigma, grid, mesh, seeds, tol):
    """Seed-law currents J on the source support, (M, C, 3), and their
    reference traces T_src J + T_med(ik m E), with E the full-grid
    Lippmann-Schwinger field at the contrast's cells solved to tol."""
    sig = evaluate_on_grid(sigma, grid).values.real
    m = evaluate_on_grid(medium, grid).values.real
    src, med = sig > 0, m != 0
    amp = noise_amplitude(sig, grid.spacing)
    t_src = HomogeneousTraceMap(k, grid, src, mesh)
    t_med = HomogeneousTraceMap(k, grid, med, mesh)
    solver = MaxwellSolver(k, medium, grid)
    J = np.stack([noise_values(amp, 1, r)[:, src].T for r in seeds])
    want = t_src.traces(J)
    for i, Ji in enumerate(J):
        full = np.zeros((3,) + grid.dims)
        full[:, src] = Ji.T
        E = solver.solve(VectorFieldC3(grid, 1j * k * full), tol=tol).field.values
        want[i] += t_med.traces((1j * k * m * E)[:, med].T[None])[0]
    return J, want


class TestMediumTraceMap:
    @pytest.mark.parametrize("n", [10, 17])
    def test_matches_full_grid_solve(self, n):
        """On the benchmark's medium bump the map gives T_src J + T_med(ik m E),
        E the full-grid solve at tol 1e-12, for three seed-law currents; the
        scattered term is 0.2-0.4 % of the trace at n = 10."""
        grid, mesh = Grid3.for_ball(1.3, n), SphereMesh(1.0, 12)
        J, want = scattering_reference(K, BENCH_MEDIUM, BENCH_SIGMA, grid, mesh, (0, 1, 2), 1e-12)
        mask = evaluate_on_grid(BENCH_SIGMA, grid).values.real > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh, BENCH_MEDIUM)
        hom = HomogeneousTraceMap(K, grid, mask, mesh).traces(J)
        assert rel_err(want, hom) > 1e-3
        for got, ref in zip(tmap.traces(J), want):
            assert rel_err(got, ref) <= 1e-9

    def test_traces_are_tangential(self):
        grid, mesh = Grid3.for_ball(1.3, 10), SphereMesh(1.0, 12)
        mask = evaluate_on_grid(BENCH_SIGMA, grid).values.real > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh, BENCH_MEDIUM)
        T = tmap.traces(np.random.default_rng(8).standard_normal((4, tmap.n_cells, 3)))
        assert np.max(np.abs(np.einsum("mni,ni->mn", T, mesh.normals))) <= 1e-14 * np.max(np.abs(T))

    def test_gmres_hand_off_in_map_build(self, sigma, monkeypatch):
        """On the medium of `test_gmres_hand_off_converges` the batched
        Neumann iteration stagnates and the build hands off to GMRES; the
        map still gives the full-grid reference, and a tolerance GMRES cannot
        reach raises SolverError."""
        k, grid, mesh = 6.0, Grid3.for_ball(1.3, 13), SphereMesh(1.0, 4)
        medium = MediumSpec((Bump((0.0, 0.0, 0.0), 0.95, 0.95),), ball_radius=1.0)
        calls = []
        monkeypatch.setattr(scipy.sparse.linalg, "gmres",
                            lambda *a, **kw: calls.append(1) or gmres(*a, **kw))
        mask = evaluate_on_grid(sigma, grid).values.real > 0
        tmap = HomogeneousTraceMap(k, grid, mask, mesh, medium)
        assert calls
        J, want = scattering_reference(k, medium, sigma, grid, mesh, (0,), 1e-12)
        assert rel_err(tmap.traces(J)[0], want[0]) <= 1e-8
        with pytest.raises(SolverError):
            HomogeneousTraceMap(k, grid, mask, mesh, medium, tol=1e-18, max_iter=2)

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import gmres

from stochmaxwell.forward import (
    HomogeneousTraceMap,
    MaxwellSolver,
    SolverError,
    _dipole_block,
    _node_image,
    curl_grid,
    extract_trace,
    neumann_solve,
    noise_amplitude,
    noise_positions,
    noise_values,
    solve_fixed_point,
)
from stochmaxwell.geometry import (
    Bump,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    evaluate_on_grid,
)
from stochmaxwell.greens import FreeConvolver, dyadic_green

from conftest import rel_err
from oracles import electric_dipole_field, pde_residual

K = 2.0


@pytest.fixture(scope="module")
def grid():
    return Grid3.for_ball(1.3, 33)


@pytest.fixture(scope="module")
def sigma():
    return SourceStrength((Bump((0.0, 0.1, 0.0), 0.5, 0.2),), ball_radius=1.0)


def solve(medium, grid, src, **kwargs):
    return MaxwellSolver(K, medium, grid).solve(src, **kwargs)


class TestNoise:
    def test_bit_identical_regeneration(self, grid, sigma):
        sig = evaluate_on_grid(sigma, grid)
        a = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=7)
        b = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=7)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self, grid, sigma):
        sig = evaluate_on_grid(sigma, grid)
        a = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=0)
        b = noise_values(noise_amplitude(sig, grid.spacing), master_seed=42, index=1)
        assert not np.array_equal(a, b)

    def test_support_cells_match_full_grid(self, grid, sigma):
        """The support form scales only the masked cells and returns the
        same bits as the full-grid draw restricted to them."""
        sig = evaluate_on_grid(sigma, grid)
        amp = noise_amplitude(sig, grid.spacing)
        mask = sig > 0
        assert 0 < mask.sum() < mask.size
        positions = noise_positions(mask)
        for index in (0, 9):
            full = noise_values(amp, 4, index)
            assert np.array_equal(noise_values(amp[mask], 4, index, positions), full[:, mask])

    def test_support_respected(self, grid, sigma):
        sig = evaluate_on_grid(sigma, grid)
        J = noise_values(noise_amplitude(sig, grid.spacing), 1, 0)
        assert np.all(J[:, sig == 0] == 0)

    def test_cell_variance_scaling(self, sigma):
        # E|J|^2 per cell = 3 sigma / h^3: white-noise normalization
        rng_checks = []
        for n in (17, 33):
            g = Grid3.for_ball(1.3, n)
            sig = evaluate_on_grid(sigma, g)
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
        """Discrete delta current reproduces the Green-tensor column. With
        no contrast the fixed point is the incident field R0 source, met in
        one iteration at residual 0."""
        medium = MediumSpec(ball_radius=1.0)
        h = grid.spacing
        c = grid.dims[0] // 2
        src_pos = grid.nodes()[:, c, c, c]
        p = np.array([0.3, -1.0, 0.5])
        src = np.zeros((3,) + grid.dims, dtype=np.complex128)
        src[:, c, c, c] = 1j * K * p / grid.cell_volume
        solver = MaxwellSolver(K, medium, grid)
        sol = solver.solve(src)
        assert np.array_equal(sol.field, solver.convolver.apply_resolvent_array(src))
        assert sol.iterations == 1 and sol.residual == 0.0
        probe_idx = (c + 7, c, c)  # 7h from the source along x
        x = grid.nodes()[(slice(None),) + probe_idx]
        E_ref, _ = electric_dipole_field(K, src_pos, p, np.array([x]))
        assert rel_err(sol.field[(slice(None),) + probe_idx], E_ref[0]) < 2e-2

    def test_pde_residual_second_order(self):
        """Interior residual of converged solves scales like h^2 for a
        well-resolved source."""
        medium = MediumSpec(ball_radius=1.0)
        res = {}
        for n in (25, 33, 49):
            g = Grid3.for_ball(1.3, n)
            x, y, z = g.nodes()
            prof = np.exp(-(x ** 2 + y ** 2 + z ** 2) / (2 * 0.35 ** 2))
            src = np.stack([prof, np.zeros_like(prof), 0.4 * prof]) + 0j
            sol = solve(medium, g, src)
            res[n] = pde_residual(sol.field, g, K, medium, src)
        # C h^2 with a stable constant: scaling between successive grids
        h25, h33, h49 = (Grid3.for_ball(1.3, n).spacing for n in (25, 33, 49))
        c_vals = [res[25] / h25 ** 2, res[33] / h33 ** 2, res[49] / h49 ** 2]
        assert max(c_vals) / min(c_vals) < 2.0
        assert max(c_vals) < 10.0

    def test_inhomogeneous_converges_and_differs(self, grid, sigma):
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
        prof = evaluate_on_grid(sigma, grid)
        src = np.stack([prof, prof, prof])
        hom = solve(MediumSpec(ball_radius=1.0), grid, src)
        inh = solve(medium, grid, src)
        assert inh.residual <= 1e-10
        assert rel_err(inh.field, hom.field) > 1e-3

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
        prof = evaluate_on_grid(sigma, grid)
        src = np.stack([prof, prof, prof])
        conv = FreeConvolver(k, grid)
        km = k ** 2 * evaluate_on_grid(medium, grid)[None]
        b = conv.apply_resolvent_array(src)

        def ls(E):
            return E + conv.apply_resolvent_array(km * E)

        _, n_neumann, stalled, _ = neumann_solve(lambda E, _: ls(E), b[None], 1e-10, 60)
        assert stalled[0] > 0.1

        solver = MaxwellSolver(k, medium, grid)
        applies = []
        apply = solver.convolver.apply_resolvent_array

        def counting(f):
            applies.append(1)
            return apply(f)

        monkeypatch.setattr(solver.convolver, "apply_resolvent_array", counting)
        sol = solver.solve(src)
        assert rel_err(ls(sol.field), b) <= 1e-10
        assert n_neumann[0] < sol.iterations
        assert len(applies) - 4 <= sol.iterations < len(applies)

    def test_stacked_systems_stop_on_their_own_residuals(self, monkeypatch):
        """Two diagonal systems x + d_i x = b_i solved as one stack: the
        contracting one (|d| <= 0.5) converges by Neumann iteration, the
        other (d up to -1.6, where the iteration diverges) stops on its own
        residual and goes to GMRES alone. Each result equals its own
        single-system solve bit for bit."""
        rng = np.random.default_rng(2)
        d = np.stack([rng.uniform(-0.5, 0.5, 40), rng.uniform(-1.6, 0.5, 40)])
        b = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
        sizes = []
        monkeypatch.setattr(scipy.sparse.linalg, "gmres",
                            lambda A, rhs, **kw: sizes.append(rhs.copy()) or gmres(A, rhs, **kw))

        def solve(sel):
            return solve_fixed_point(lambda x, s: x + d[sel][s] * x, b[sel], 1e-12, 60, "test")

        x, iters, res = solve(np.array([0, 1]))
        assert len(sizes) == 1 and np.array_equal(sizes[0], b[1])
        assert np.all(res <= 1e-12)
        for i in (0, 1):
            xi, iters_i, res_i = solve(np.array([i]))
            assert np.array_equal(x[i], xi[0]) and iters[i] == iters_i[0] and res[i] == res_i[0]
        assert len(sizes) == 2

    def test_nonfinite_residual_raises(self):
        """A stack whose operator puts a nan into every system's image raises
        SolverError naming the system, instead of returning nan iterates
        with nan residuals as converged."""
        b = np.ones((2, 8), dtype=complex)

        def apply(x, sel):
            y = 1.1 * x
            y[:, 0] = np.nan
            return y

        with pytest.raises(SolverError, match="system 0 has the non-finite residual nan") as exc:
            solve_fixed_point(apply, b, 1e-10, 60, "test")
        assert np.isnan(exc.value.residual_history[-1])
        with pytest.raises(SolverError, match="non-finite"):
            solve_fixed_point(apply, b[:1], 1e-10, 60, "test")

    def test_solver_failure_raises(self, grid, sigma):
        """An unattainable tolerance must raise instead of silently
        returning a field that misses the requested accuracy."""
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.9),), ball_radius=1.0)
        prof = evaluate_on_grid(sigma, grid)
        src = np.stack([prof, prof, prof])
        with pytest.raises(SolverError) as exc:
            solve(medium, grid, src, tol=1e-18, max_iter=2)
        assert exc.value.residual_history

    def test_source_not_on_the_grid_rejected(self):
        """The source must be samples (3,) + grid.dims of the solver's grid."""
        grid = Grid3.for_ball(1.3, 9)
        solver = MaxwellSolver(K, MediumSpec(ball_radius=1.0), grid)
        for shape in (grid.dims, (2,) + grid.dims, (3, 9, 9, 8), (1, 3) + grid.dims):
            with pytest.raises(ValueError):
                solver.solve(np.ones(shape))

    def test_nonfinite_source_rejected(self):
        """A nan or inf in the source is refused, not propagated into the
        field (the check of `FreeConvolver.apply_array`)."""
        grid = Grid3.for_ball(1.3, 9)
        solver = MaxwellSolver(K, MediumSpec(ball_radius=1.0), grid)
        for bad in (np.nan, np.inf):
            src = np.zeros((3,) + grid.dims, dtype=complex)
            src[1, 4, 4, 4] = bad
            with pytest.raises(ValueError, match="non-finite"):
                solver.solve(src)


class TestTrace:
    def test_tangentiality(self, grid):
        mesh = SphereMesh(1.0, 10)
        rng = np.random.default_rng(8)
        E = rng.standard_normal((3,) + grid.dims) + 1j * rng.standard_normal((3,) + grid.dims)
        tr = extract_trace(E, grid, mesh)
        assert tr.shape == (mesh.n_nodes, 3)
        assert np.max(np.abs(np.sum(tr * mesh.normals, axis=1))) < 1e-12

    def test_sphere_outside_grid_rejected(self):
        g = Grid3.cube(0.9, 17)
        mesh = SphereMesh(1.0, 6)
        E = np.zeros((3,) + g.dims, dtype=complex)
        with pytest.raises(ValueError):
            extract_trace(E, g, mesh)

    def test_samples_not_on_the_grid_rejected(self, grid):
        mesh = SphereMesh(1.0, 6)
        for shape in (grid.dims, (2,) + grid.dims, (3, 33, 33, 32), (4, 3) + grid.dims):
            with pytest.raises(ValueError):
                extract_trace(np.zeros(shape, dtype=complex), grid, mesh)


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

    def test_equals_the_rolled_stencils(self):
        """The stencils read through `stencil_cells` equal, bit for bit,
        the periodic stencils written with np.roll, on stacked fields."""
        rng = np.random.default_rng(3)
        F = rng.standard_normal((2, 3, 5, 6, 7)) + 1j * rng.standard_normal((2, 3, 5, 6, 7))
        h = 0.3

        def diff(f, axis):
            return (8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
                    - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12.0 * h)

        dF = [[diff(F[:, c], ax) for ax in (-3, -2, -1)] for c in range(3)]
        want = np.stack([dF[2][1] - dF[1][2], dF[0][2] - dF[2][0], dF[1][0] - dF[0][1]], axis=1)
        assert np.array_equal(curl_grid(F, h), want)


# a source bump that no coordinate mirror keeps
ASYMMETRIC = SourceStrength((Bump((0.2, 0.25, 0.3), 0.45, 0.2),), ball_radius=1.0)


class TestHomogeneousTraceMap:
    def test_matches_volume_solver(self, grid, sigma):
        """Green-superposition traces equal solver-plus-interpolation traces
        within interpolation tolerance."""
        mesh = SphereMesh(1.0, 10)
        sig = evaluate_on_grid(sigma, grid)
        mask = sig > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh)
        J = noise_values(noise_amplitude(sig, grid.spacing), 12, 0)
        direct = mesh.from_frame(tmap.traces(J[:, mask].T[None])[0])
        src = 1j * K * J.astype(complex)
        solved = extract_trace(solve(MediumSpec(ball_radius=1.0), grid, src).field, grid, mesh)
        # trilinear interpolation of the near-singular field limits agreement
        assert rel_err(solved, direct) < 0.05

    def test_linearity_in_current(self, grid, sigma):
        mesh = SphereMesh(1.0, 8)
        sig = evaluate_on_grid(sigma, grid)
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
        mask = evaluate_on_grid(sigma, g) > 0
        tmap = HomogeneousTraceMap(K, g, mask, mesh)
        coords = g.nodes()[:, mask].T
        J = np.random.default_rng(3).standard_normal((1, len(coords), 3))
        want = np.zeros((mesh.n_nodes, 3), dtype=np.complex128)
        for n, (x, nu) in enumerate(zip(mesh.nodes, mesh.normals)):
            E = sum(dyadic_green(K, x, y) @ Jc for y, Jc in zip(coords, J[0]))
            want[n] = np.cross(g.cell_volume * E, nu)
        assert rel_err(mesh.from_frame(tmap.traces(J)[0]), want) < 1e-12

    def test_complex_current(self, sigma):
        g = Grid3.for_ball(1.3, 17)
        mask = evaluate_on_grid(sigma, g) > 0
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
        mask = evaluate_on_grid(sig, g) > 0
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
        node: on the asymmetric mask, the dense 3C * 2N complex values, not a
        third (normal) column; on the fixture's mask, which the x and z
        mirrors keep, exactly its symmetry blocks, 2^g (3R, 2N_r) complex
        arrays for R cell and N_r node orbits, counted here from the index
        tuples."""
        g = Grid3.for_ball(1.3, 13)
        mesh = SphereMesh(1.0, 8)
        for spec in (sigma, ASYMMETRIC):
            mask = evaluate_on_grid(spec, g) > 0
            tracemalloc.start()
            try:
                tmap = HomogeneousTraceMap(K, g, mask, mesh)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            node_bytes = 3 * tmap.n_cells * 16  # one complex column over the cells
            axes = [a for a in range(3) if np.array_equal(mask, np.flip(mask, a))]
            if spec is ASYMMETRIC:
                assert not axes
                assert 2 * mesh.n_nodes * node_bytes <= held < 2.5 * mesh.n_nodes * node_bytes
                continue
            assert axes == [0, 2]
            ijk = np.argwhere(mask)
            cells = {min(tuple(np.where(np.isin(range(3), f), np.array(g.dims) - 1 - c, c))
                          for f in ([], [0], [2], [0, 2])) for c in ijk}
            it, jp = np.divmod(np.arange(mesh.n_nodes), mesh.n_phi)
            nodes = {min((i, j), (mesh.n_theta - 1 - i, j), (i, (mesh.n_phi // 2 - j) % mesh.n_phi),
                         (mesh.n_theta - 1 - i, (mesh.n_phi // 2 - j) % mesh.n_phi))
                     for i, j in zip(it, jp)}
            block_bytes = 4 * 3 * len(cells) * 2 * len(nodes) * 16
            assert block_bytes <= held < 1.25 * block_bytes

    @pytest.mark.parametrize("lmax", [7, 8])
    def test_node_image_is_the_signed_node(self, lmax):
        """`_node_image(mesh, d)` takes each node x_n to the node at d * x_n,
        for all 8 sign vectors d, to the rounding of the nodes' cosines and
        sines (1.1e-15 at worst, for d = (-1, 1, 1) at lmax 8); lmax 8 has a
        ring of nodes on z = 0."""
        mesh = SphereMesh(1.0, lmax)
        for d in itertools.product((1.0, -1.0), repeat=3):
            image = mesh.nodes[_node_image(mesh, np.array(d))]
            assert np.max(np.abs(image - np.array(d) * mesh.nodes)) <= 2e-15

    @pytest.mark.parametrize("lmax", [7, 8])
    @pytest.mark.parametrize("spec, n_mirrors", [
        (SourceStrength((Bump((0.0, 0.0, 0.0), 0.5, 0.2),), ball_radius=1.0), 3),
        (SourceStrength((Bump((0.0, 0.25, 0.3), 0.45, 0.2),), ball_radius=1.0), 1),
        (ASYMMETRIC, 0),
    ], ids=["centred", "off-centre-in-y-and-z", "asymmetric"])
    def test_blocks_equal_the_dense_superposition(self, spec, n_mirrors, lmax):
        """The map on its 2^g symmetry blocks gives the traces of the dense
        superposition of `_dipole_block` columns over all cells and nodes,
        within 1e-13 of max|T|. lmax 8 puts a ring of nodes on z = 0 and
        lmax 7 puts nodes on x = 0, so both kinds of node stabilizer are met
        (nodes on y = 0 exist at every lmax); the centred bump has cells on
        all three mirror planes."""
        g, mesh = Grid3.for_ball(1.3, 17), SphereMesh(1.0, lmax)
        on_plane = np.abs(mesh.nodes[:, 2 if lmax % 2 == 0 else 0]) < 1e-12
        assert on_plane.sum() == 2 * lmax + 2  # a ring of n_phi, or n_theta rings of two
        mask = evaluate_on_grid(spec, g) > 0
        tmap = HomogeneousTraceMap(K, g, mask, mesh)
        assert len(tmap._blocks) == 2 ** n_mirrors
        coords = g.nodes()[:, mask].T
        W = _dipole_block(K, g.cell_volume, coords, mesh, np.arange(mesh.n_nodes))
        J = np.random.default_rng(lmax).standard_normal((5, len(coords), 3))
        want = np.einsum("mcj,cjnt->mnt", J, W)
        got = tmap.traces(J)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_no_mirror_is_the_dense_product(self):
        """With no usable mirror the one block is the dense (3C, 2N) map,
        built by node blocks of 16 as `_dipole_block` columns, and the traces
        are its one real product, bit for bit."""
        g, mesh = Grid3.for_ball(1.3, 17), SphereMesh(1.0, 8)
        mask = evaluate_on_grid(ASYMMETRIC, g) > 0
        tmap = HomogeneousTraceMap(K, g, mask, mesh)
        coords, N = g.nodes()[:, mask].T, mesh.n_nodes
        W = np.empty((len(coords), 3, N, 2), dtype=np.complex128)
        for lo in range(0, N, 16):
            W[:, :, lo : lo + 16] = _dipole_block(K, g.cell_volume, coords, mesh,
                                                  np.arange(lo, min(lo + 16, N)))
        J = np.random.default_rng(6).standard_normal((7, len(coords), 3))
        T = J.reshape(7, -1) @ W.reshape(3 * len(coords), 2 * N).view(np.float64)
        want = T.view(np.complex128).reshape(7, N, 2)
        assert np.array_equal(tmap.traces(J), want)

    def test_traces_are_tangential(self, sigma):
        g = Grid3.for_ball(1.3, 13)
        mesh = SphereMesh(1.0, 8)
        mask = evaluate_on_grid(sigma, g) > 0
        tmap = HomogeneousTraceMap(K, g, mask, mesh)
        T = tmap.traces(np.random.default_rng(7).standard_normal((4, tmap.n_cells, 3)))
        assert T.shape == (4, mesh.n_nodes, 2)  # (theta_hat, phi_hat): no normal part
        normal = np.einsum("mni,ni->mn", mesh.from_frame(T), mesh.normals)
        assert np.max(np.abs(normal)) <= 1e-14 * np.max(np.abs(T))

    def test_currents_of_another_cell_count_rejected(self):
        """The currents must be (M, n_cells, 3): too few or too many cells,
        or a missing axis, are refused rather than clipped or ignored."""
        g, mesh = Grid3.for_ball(1.3, 9), SphereMesh(1.0, 4)
        spec = SourceStrength((Bump((0.0, 0.0, 0.0), 0.9, 0.1),), ball_radius=1.0)
        tmap = HomogeneousTraceMap(K, g, evaluate_on_grid(spec, g) > 0, mesh)
        assert tmap.n_cells == 7
        assert tmap.traces(np.ones((2, 7, 3))).shape == (2, mesh.n_nodes, 2)
        for shape in ((2, 6, 3), (2, 12, 3), (2, 7, 2), (2, 21), (7, 3), (1, 2, 7, 3)):
            with pytest.raises(ValueError):
                tmap.traces(np.ones(shape))


# the benchmark's medium bump
BENCH_MEDIUM = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
BENCH_SIGMA = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)


def scattering_reference(k, medium, sigma, grid, mesh, seeds, tol):
    """Seed-law currents J on the source support, (M, C, 3), and their
    reference traces T_src J + T_med(ik m E), with E the full-grid
    Lippmann-Schwinger field at the contrast's cells solved to tol."""
    sig = evaluate_on_grid(sigma, grid)
    m = evaluate_on_grid(medium, grid)
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
        E = solver.solve(1j * k * full, tol=tol).field
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
        mask = evaluate_on_grid(BENCH_SIGMA, grid) > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh, BENCH_MEDIUM)
        hom = HomogeneousTraceMap(K, grid, mask, mesh).traces(J)
        assert rel_err(want, hom) > 1e-3
        for got, ref in zip(tmap.traces(J), want):
            assert rel_err(got, ref) <= 1e-9

    def test_traces_are_tangential(self):
        grid, mesh = Grid3.for_ball(1.3, 10), SphereMesh(1.0, 12)
        mask = evaluate_on_grid(BENCH_SIGMA, grid) > 0
        tmap = HomogeneousTraceMap(K, grid, mask, mesh, BENCH_MEDIUM)
        T = tmap.traces(np.random.default_rng(8).standard_normal((4, tmap.n_cells, 3)))
        assert T.shape == (4, mesh.n_nodes, 2)  # (theta_hat, phi_hat): no normal part
        normal = np.einsum("mni,ni->mn", mesh.from_frame(T), mesh.normals)
        assert np.max(np.abs(normal)) <= 1e-14 * np.max(np.abs(T))

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
        mask = evaluate_on_grid(sigma, grid) > 0
        tmap = HomogeneousTraceMap(k, grid, mask, mesh, medium)
        assert calls
        J, want = scattering_reference(k, medium, sigma, grid, mesh, (0,), 1e-12)
        assert rel_err(tmap.traces(J)[0], want[0]) <= 1e-8
        with pytest.raises(SolverError):
            HomogeneousTraceMap(k, grid, mask, mesh, medium, tol=1e-18, max_iter=2)

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochmaxwell import cgo
from stochmaxwell.cgo import (
    CgoRemainderSolver,
    ConjugatedResolvent,
    StabilityConstants,
    build_frame,
    build_zeta_eta,
    cgo_on_sphere,
    cgo_product_remainder,
    plane_wave_on,
    solve_cgo_remainder,
)
from stochmaxwell.forward import SolverError, curl_grid, neumann_solve
from stochmaxwell.geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SphereMesh,
    evaluate_on_grid,
    trilinear_interpolate,
)
from stochmaxwell.verify import cgo_product_identity, cgo_stencil_residual, remainder_norm

from conftest import rel_err

K = 2.0
# a non-cubic grid: its axes have spectral cells of two widths
BOX = Grid3(origin=(-1.6, -1.9, -1.6), spacing=0.33, dims=(10, 12, 10))


class TestFrame:
    @given(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
        )
    )
    @example((0.0, 0.0, 5.8e-160))  # squared norm underflows to a subnormal
    @settings(max_examples=50, deadline=None)
    def test_orthonormal_right_handed(self, xi):
        frame = build_frame(np.array(xi))
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-9)

    def test_first_axis_aligned_with_xi(self):
        xi = np.array([0.3, -1.2, 0.4])
        frame = build_frame(xi)
        assert np.allclose(frame[0], xi / np.linalg.norm(xi))

    def test_zero_maps_to_standard_frame(self):
        assert np.allclose(build_frame(np.zeros(3))[0], [0, 0, 1])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            build_frame(np.zeros(4))


class TestZetaEta:
    def check_identities(self, xi, t, **kwargs):
        zeta, eta, lead = build_zeta_eta(xi, t, K, **kwargs)
        for z, e in zip(zeta, eta):
            assert z @ z == pytest.approx(K ** 2, abs=1e-10)
            assert abs(z @ e) < 1e-12
        assert np.allclose(zeta[0] + zeta[1], -np.asarray(xi), atol=1e-12)
        want = 1.0 - np.dot(xi, xi) / (4 * t ** 2)
        assert lead == pytest.approx(want, abs=1e-12)
        assert eta[0] @ eta[1] == pytest.approx(want, abs=1e-12)

    def test_reference_pair(self):
        self.check_identities(np.array([1.0, -0.5, 0.25]), 5.0)

    @given(
        az=st.floats(0.0, np.pi, exclude_max=True),
        t=st.floats(2.5, 8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_azimuth_admissible(self, az, t):
        self.check_identities(np.array([0.7, 0.2, -1.1]), t, azimuth=az)

    def test_azimuth_pi_swaps_the_pair(self):
        xi = np.array([0.5, 1.0, 0.0])
        za, ea, _ = build_zeta_eta(xi, 4.0, K)
        zb, eb, _ = build_zeta_eta(xi, 4.0, K, azimuth=np.pi)
        assert np.allclose(zb[0], za[1], atol=1e-12)
        assert np.allclose(eb[0], ea[1], atol=1e-12)

    def test_small_t_rejected(self):
        with pytest.raises(ConfigurationError):
            build_zeta_eta(np.zeros(3), 1.5, K)  # t^2 < k^2 - |xi|^2/4

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ConfigurationError):
            build_zeta_eta(np.ones(3), 0.0, K)

    def test_overflow_guard(self):
        with pytest.raises(ConfigurationError):
            build_zeta_eta(np.zeros(3), 50.0, K, box_radius=2.0)


class TestStabilityConstants:
    def test_defaults_valid(self):
        c = StabilityConstants()
        assert c.M1 == 1.0 and c.s == 1.0

    def test_nonpositive_rejected(self):
        for kwargs in ({"M1": 0.0}, {"s": -1.0}):
            with pytest.raises(ConfigurationError):
                StabilityConstants(**kwargs)


@pytest.fixture(scope="module")
def grid():
    return Grid3.for_ball(1.3, 33)


@pytest.fixture(scope="module")
def contrast_medium():
    return MediumSpec((Bump((0.1, 0.0, -0.1), 0.6, 0.05),), ball_radius=1.0)


class TestConjugatedResolvent:
    """The resolvent's multipliers against a direct evaluation: far bins are
    the reciprocal Faddeev symbol, near-resonant bins the midpoint mean of
    its reciprocal over a 12^3 subgrid of the spectral cell."""

    GRID = Grid3.for_ball(1.3, 10)

    @staticmethod
    def symbol_lattice(zeta, grid):
        kv = [2.0 * np.pi * np.fft.fftfreq(2 * n, d=grid.spacing) for n in grid.dims]
        sx, sy, sz = np.meshgrid(*kv, indexing="ij")
        denom = sx ** 2 + sy ** 2 + sz ** 2 + 2.0 * (
            sx * zeta[0] + sy * zeta[1] + sz * zeta[2]
        )
        return kv, denom

    @staticmethod
    def cell_mean(zeta, s0, ds, sub=12):
        """Midpoint mean of the reciprocal symbol over the cell of widths ds
        about s0."""
        q = [((np.arange(sub) + 0.5) / sub - 0.5) * d for d in ds]
        ox, oy, oz = (a.ravel() for a in np.meshgrid(*q, indexing="ij"))
        s = np.stack([s0[0] + ox, s0[1] + oy, s0[2] + oz])
        dn = np.sum(s * s, axis=0) + 2.0 * np.tensordot(zeta, s, axes=1)
        return np.mean(1.0 / dn)

    @classmethod
    def assert_cell_means(cls, grid, xi, azimuth):
        """Far bins are 1/denom bit for bit; near bins, taken at the widest
        spectral cell, are within 1e-9 of the mean over each axis's cell."""
        for zeta in build_zeta_eta(np.array(xi), 5.0, K, azimuth=azimuth)[0]:
            res = ConjugatedResolvent(zeta, K, grid)
            kv, denom = cls.symbol_lattice(zeta, grid)
            ds = [v[1] - v[0] for v in kv]
            near = np.abs(denom) < 4.0 * (np.abs(zeta).max() + K) * max(ds)
            assert 0 < near.sum() < near.size
            assert np.array_equal(res._inv[~near], 1.0 / denom[~near])
            worst = 0.0
            for i, j, l in np.argwhere(near):
                want = cls.cell_mean(zeta, (kv[0][i], kv[1][j], kv[2][l]), ds)
                worst = max(worst, abs(res._inv[i, j, l] - want) / abs(want))
            assert worst < 1e-9

    @pytest.mark.parametrize(
        "xi, azimuth",
        [
            ((0.0, 0.0, 0.0), 0.0),
            ((0.6, -0.3, 0.2), 0.0),
            ((1.0, 0.5, -0.8), 1.1),
            ((1.43, 0.0, 0.0), 0.4),
        ],
    )
    def test_multipliers_match_direct_cell_means(self, xi, azimuth):
        self.assert_cell_means(self.GRID, xi, azimuth)

    def test_non_cubic_cells_average_over_their_own_widths(self):
        """On the 10 x 12 x 10 box the y cells are narrower than the x and z
        cells."""
        self.assert_cell_means(BOX, (0.6, -0.3, 0.2), 0.0)

    @pytest.mark.parametrize(
        "grid, lo, dims",
        [(GRID, (4, 5, 3), (1, 1, 1)), (BOX, (0, 7, 3), (3, 5, 2)), (GRID, (0, 0, 0), (10, 10, 10))],
        ids=["one-cell", "off-centre-face", "whole-grid"],
    )
    def test_box_operator_is_the_restricted_apply(self, grid, lo, dims):
        """On values supported in a box, the box operator equals the full
        padded apply read on the box."""
        zeta = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        res = ConjugatedResolvent(zeta, K, grid)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((3,) + dims) + 1j * rng.standard_normal((3,) + dims)
        box = (slice(None),) + tuple(slice(a, a + s) for a, s in zip(lo, dims))
        full = np.zeros((3,) + grid.dims, dtype=np.complex128)
        full[box] = f
        assert rel_err(res.on_box(dims)(f), res.apply(full)[box]) <= 1e-13


    @pytest.mark.parametrize(
        "xi, azimuth",
        [((0.0, 0.0, 0.7), 0.0), ((0.6, -0.3, 0.2), 0.0), ((1.43, 0.0, 0.0), 0.0)],
    )
    @pytest.mark.parametrize("which", [1, 2])
    def test_mirror_matches_direct_build(self, xi, azimuth, which):
        """The resolvent of zeta' = -conj(zeta), lent the near data of the
        resolvent of zeta with P = -I and conjugation, equals a direct build
        on every bin; the bins it borrows are exactly the near bins off the
        Nyquist planes."""
        grid = self.GRID
        xi = np.array(xi)
        zp = build_zeta_eta(xi, 5.0, K, azimuth=azimuth)[0][which - 1]
        zeta = build_zeta_eta(-xi, 5.0, K, azimuth=azimuth)[0][2 - which]
        assert np.array_equal(zeta, -np.conj(zp))
        near = ConjugatedResolvent(zp, K, grid).near
        direct = ConjugatedResolvent(zeta, K, grid)
        mirrored = ConjugatedResolvent(zeta, K, grid, lend=(near, -np.eye(3), True))
        assert np.max(np.abs(mirrored._inv - direct._inv) / np.abs(direct._inv)) <= 1e-12
        assert np.array_equal(borrowed_bins(zeta, grid, near, -np.eye(3), True),
                              near_off_nyquist(direct, -np.eye(3)))

    def test_signed_permutation_borrows_off_flipped_nyquist_planes(self):
        """Lent through a permutation that reflects two of three axes, the
        resolvent equals a direct build within 1e-9 relative, and the bins it
        borrows are the near bins off the Nyquist planes of the reflected
        axes only."""
        grid = self.GRID
        P = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        zp = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        zeta = np.conj(P @ zp)
        near = ConjugatedResolvent(zp, K, grid).near
        direct = ConjugatedResolvent(zeta, K, grid)
        lent = ConjugatedResolvent(zeta, K, grid, lend=(near, P, True))
        assert np.max(np.abs(lent._inv - direct._inv) / np.abs(direct._inv)) <= 1e-9
        want = near_off_nyquist(direct, P)
        assert np.array_equal(borrowed_bins(zeta, grid, near, P, True), want)
        # the unreflected axis keeps its Nyquist plane
        half = [p_ax // 2 for p_ax in direct.padded]
        assert np.any(want[:, half[1]]) and not np.any(want[half[0]])


def borrowed_bins(zeta, grid, near, P, conj):
    """Bins whose multiplier changes when the lender's averages are doubled."""
    lent = ConjugatedResolvent(zeta, K, grid, lend=(near, P, conj))
    doubled = ConjugatedResolvent(zeta, K, grid, lend=((near[0], 2.0 * near[1]), P, conj))
    return doubled._inv != lent._inv


def near_off_nyquist(res, P):
    """The near bins of `res` off the Nyquist planes of the axes P reflects."""
    mask = np.zeros(res._inv.size, dtype=bool)
    mask[res.near[0]] = True
    mask = mask.reshape(res._inv.shape)
    for axis, p_ax in enumerate(res.padded):
        if P[axis].sum() < 0:
            mask[(slice(None),) * axis + (p_ax // 2,)] = False
    return mask


class TestRemainderSolver:
    GRID = Grid3.for_ball(1.3, 10)

    @pytest.fixture
    def lent(self, monkeypatch):
        """Records, per resolvent build, whether it borrowed another's data."""
        seen = []
        init = ConjugatedResolvent.__init__

        def recording(self, zeta, k, grid, lend=None):
            seen.append(lend is not None)
            init(self, zeta, k, grid, lend)

        monkeypatch.setattr(cgo.ConjugatedResolvent, "__init__", recording)
        return seen

    def test_antipodes_mirror_and_match_direct_solves(self, contrast_medium, lent):
        xi = np.array([0.9, 0.4, -0.2])
        zeta, eta, _ = build_zeta_eta(np.stack([xi, -xi]), 5.0, K)
        solver = CgoRemainderSolver(K, contrast_medium, self.GRID)
        got = [solver.solve(zeta[i, w], eta[i, w]).W for i in (0, 1) for w in (0, 1)]
        assert lent == [False, False, True, True]
        for (i, w), W in zip([(i, w) for i in (0, 1) for w in (0, 1)], got):
            fresh = CgoRemainderSolver(K, contrast_medium, self.GRID)
            assert rel_err(W, fresh.solve(zeta[i, w], eta[i, w]).W) <= 1e-12

    def test_zero_frequency_builds_directly(self, contrast_medium, lent):
        """xi = 0 builds one resolvent directly: zeta_2(0) = -zeta_1(0)
        shares the orbit of zeta_1(0), so it and the repeat borrow."""
        zeta, eta, _ = build_zeta_eta(np.zeros(3), 5.0, K)
        assert np.array_equal(zeta[1], -zeta[0])
        solver = CgoRemainderSolver(K, contrast_medium, self.GRID)
        for w in (0, 1, 0):
            solver.solve(zeta[w], eta[w])
        assert lent == [False, True, True]

    def test_lends_only_within_the_match_tolerance(self, contrast_medium, lent):
        """A zeta whose canonical form is 1e-10 relative off every orbit's
        builds directly; one 1e-14 off borrows."""
        zeta = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        solver = CgoRemainderSolver(K, contrast_medium, self.GRID)
        for z in (zeta, (1.0 + 1e-10) * zeta, (1.0 + 1e-14) * zeta):
            solver._resolvent(z)
        assert lent == [False, False, True]

    SWAP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    CYCLE = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    SWAP_XZ = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "grid, xi, azimuth, P, want",
        [
            (GRID, (0.6, -0.3, 0.2), 0.0, CYCLE, [False, False, True, True]),
            (GRID, (1.0, 0.0, 0.0), 0.0, SWAP, [False, True, True, True]),
            (GRID, (0.0, 0.0, 0.0), 0.0, CYCLE, [False, True, True, True]),
            # |xi| = 1.43, the schedule cutoff 5^(2/9) at t = 5
            (GRID, (0.858, 0.0, 1.144), 0.0, CYCLE, [False, True, True, True]),
            (GRID, (1.0, 0.5, -0.8), 1.1, SWAP, [False, False, True, True]),
            (BOX, (0.6, -0.3, 0.2), 0.0, SWAP_XZ, [False, False, True, True]),
            (BOX, (0.6, -0.3, 0.2), 0.0, -np.eye(3), [False, False, True, True]),
            (BOX, (0.6, -0.3, 0.2), 0.0, SWAP, [False, False, False, False]),
        ],
        ids=["generic", "axis-aligned", "zero", "cutoff", "azimuth", "box-swap-equal",
             "box-reflect", "box-swap-unequal"],
    )
    def test_lent_resolvents_match_direct_builds(self, contrast_medium, lent, grid, xi,
                                                 azimuth, P, want):
        """The solver builds both members of xi and of P xi; whatever it lends
        equals a direct build within 1e-9 relative on every bin. On the
        10 x 12 x 10 box only the two axes of length 10 may be exchanged."""
        xi = np.array(xi)
        solver = CgoRemainderSolver(K, contrast_medium, grid)
        zetas = [z for x in (xi, P @ xi) for z in build_zeta_eta(x, 5.0, K, azimuth=azimuth)[0]]
        got = [solver._resolvent(z) for z in zetas]
        assert lent == want
        for zeta, res in zip(zetas, got):
            direct = ConjugatedResolvent(zeta, K, grid)
            assert np.max(np.abs(res._inv - direct._inv) / np.abs(direct._inv)) <= 1e-9

    @pytest.mark.parametrize("grid", [GRID, BOX], ids=["cube", "non-cubic"])
    def test_box_solve_matches_full_grid_iteration(self, contrast_medium, grid):
        """The solve on the contrast's support box agrees with the Neumann
        iteration over the full-grid apply, and the W it returns meets the
        full-grid fixed point."""
        tol = 1e-13
        zeta, eta, _ = build_zeta_eta(np.array([0.9, 0.4, -0.2]), 5.0, K)
        zeta, eta = zeta[0], eta[0]
        W = CgoRemainderSolver(K, contrast_medium, grid, tol=tol).solve(zeta, eta).W
        res = ConjugatedResolvent(zeta, K, grid)
        km = K ** 2 * evaluate_on_grid(contrast_medium, grid).values.real[None]
        b = res.apply(-km * eta[:, None, None, None])

        def fixed_point(W):
            return W + res.apply(km * W)

        want, _, _, _ = neumann_solve(fixed_point, b, tol, 60)
        assert rel_err(W, want) <= 10 * tol
        assert rel_err(fixed_point(W), b) <= 10 * tol

    def test_one_full_grid_apply_per_solve(self, contrast_medium, monkeypatch):
        """The iteration runs on the support box; only the final evaluation
        of W on the whole grid goes through the full-grid apply."""
        calls = []
        apply = ConjugatedResolvent.apply

        def counted(self, f):
            calls.append(f.shape)
            return apply(self, f)

        monkeypatch.setattr(cgo.ConjugatedResolvent, "apply", counted)
        zeta, eta, _ = build_zeta_eta(np.array([0.9, 0.4, -0.2]), 5.0, K)
        W = CgoRemainderSolver(K, contrast_medium, self.GRID).solve(zeta[0], eta[0]).W
        assert np.any(W)
        assert len(calls) == 1

    def test_stacked_pairs_match_single_builds(self):
        xis = np.array([[0.0, 0.0, 0.0], [0.9, 0.4, -0.2], [-1e-300, 0.0, 2e-300]])
        azimuths = np.array([0.0, 0.7])
        zeta, eta, lead = build_zeta_eta(xis[:, None], 5.0, K, azimuths[None])
        assert zeta.shape == eta.shape == (3, 2, 2, 3)
        for i, xi in enumerate(xis):
            for f, az in enumerate(azimuths):
                z1, e1, lead1 = build_zeta_eta(xi, 5.0, K, azimuth=az)
                assert np.array_equal(zeta[i, f], z1)
                assert np.array_equal(eta[i, f], e1)
                assert lead[i, f] == lead1
        with pytest.raises(ConfigurationError):
            build_zeta_eta(xis, 50.0, K, box_radius=2.0)


class TestHomogeneousSolution:
    def test_zero_remainder_and_exact_pde(self, grid):
        """With m = 0 the plane-phase CGO field solves curl curl U = k^2 U
        exactly; the solver must return a zero correction and zero residual."""
        hom = MediumSpec(ball_radius=1.0)
        sol = solve_cgo_remainder(np.array([0.8, -0.3, 0.2]), 4.0, K, 1, hom, grid)
        assert sol.residual == 0.0
        assert remainder_norm(sol, 1.0) == 0.0
        U = np.exp(1j * np.tensordot(sol.zeta, grid.nodes(), axes=1))[None] * sol.amplitude()
        ccU = curl_grid(curl_grid(U, grid.spacing), grid.spacing)
        # fourth-order stencils on a field growing like e^{t r}: modest tol
        sl = (slice(None), slice(6, -6), slice(6, -6), slice(6, -6))
        assert rel_err(ccU[sl], K ** 2 * U[sl]) < 1e-2

    def test_stencil_residual_detects_a_broken_pair(self):
        """The m = 0 CGO field passes the stencil probe of `stochmaxwell
        verify`; a phase off zeta . zeta = k^2 by 0.2 % or a polarization
        off zeta . eta = 0 fails it."""
        grid = Grid3.cube(1.0, 33)
        zeta, eta, _ = build_zeta_eta(np.array([1.0, 0.0, 0.5]), 2.5, K)
        for z, e in zip(zeta, eta):
            assert cgo_stencil_residual(z, e, K, grid) <= 1e-3
            assert cgo_stencil_residual(1.001 * z, e, K, grid) > 1e-3
            assert cgo_stencil_residual(z, e + 0.01 * z, K, grid) > 1e-3

    def test_sphere_samples_are_analytic(self, grid):
        xi = np.array([0.5, 0.5, 0.0])
        sol = solve_cgo_remainder(xi, 3.0, K, 2, MediumSpec(ball_radius=1.0), grid)
        zeta, eta, _ = build_zeta_eta(xi, 3.0, K)
        zeta, eta = zeta[1], eta[1]
        assert np.array_equal(sol.zeta, zeta) and np.array_equal(sol.eta, eta)
        mesh = SphereMesh(1.0, 8)
        for W in (sol.W[None], None):
            U, curlU = cgo_on_sphere(zeta[None], eta[None], W, grid, mesh)
            phase = np.exp(1j * mesh.nodes @ zeta)
            want = mesh.to_frame(phase[:, None] * eta[None, :])
            assert np.allclose(U[0], want, atol=1e-12)
            want = mesh.to_frame(phase[:, None] * np.cross(1j * zeta, eta)[None, :])
            assert np.allclose(curlU[0], want, atol=1e-12)

    @pytest.mark.parametrize("which", [1, 2])
    def test_stacked_plane_waves_match_single_calls(self, which):
        """Stacked (C, 3) phase/polarization pairs give (C, N, 3) samples
        equal, column by column, to one call per pair."""
        mesh = SphereMesh(1.0, 8)
        xis = np.array([[0.0, 0.0, 0.0], [1.2, -0.4, 2.0], [-3.0, 0.5, 0.1]])
        zeta, eta, _ = build_zeta_eta(xis[:, None], 5.0, K, np.array([0.0, 0.9])[None])
        zeta, eta = zeta[..., which - 1, :].reshape(-1, 3), eta[..., which - 1, :].reshape(-1, 3)
        U, curlU = plane_wave_on(zeta, eta, mesh.nodes)
        assert U.shape == curlU.shape == (len(zeta), mesh.n_nodes, 3)
        for c in range(len(zeta)):
            U1, curlU1 = plane_wave_on(zeta[c], eta[c], mesh.nodes)
            assert rel_err(U[c], U1) <= 1e-15
            assert rel_err(curlU[c], curlU1) <= 1e-15


class TestContrastSolution:
    def test_stacked_columns_match_single_calls(self, contrast_medium):
        """Stacked remainder solutions on the sphere equal, column by column,
        one single-column `cgo_on_sphere` call per solution and a per-column
        evaluation written out here (phase, stencil curl, trilinear
        interpolation), projected onto the frame."""
        grid = Grid3.for_ball(1.3, 10)
        mesh = SphereMesh(1.0, 8)
        sols = [
            solve_cgo_remainder(np.array(xi), 5.0, K, w, contrast_medium, grid)
            for xi in ([0.0, 0.0, 0.0], [1.2, -0.4, 0.3]) for w in (1, 2)
        ]
        zeta, eta = np.array([s.zeta for s in sols]), np.array([s.eta for s in sols])
        W = np.array([s.W for s in sols])
        assert np.any(W)
        U, curlU = cgo_on_sphere(zeta, eta, W, grid, mesh)
        for c, sol in enumerate(sols):
            U1, curlU1 = cgo_on_sphere(zeta[c : c + 1], eta[c : c + 1], W[c : c + 1], grid, mesh)
            assert rel_err(U[c], U1[0]) <= 1e-14
            assert rel_err(curlU[c], curlU1[0]) <= 1e-14
            Wc = W[c] * np.exp(1j * np.tensordot(sol.zeta, grid.nodes(), axes=1))[None]
            U0, curlU0 = plane_wave_on(sol.zeta, sol.eta, mesh.nodes)
            U2 = U0 + trilinear_interpolate(Wc, grid, mesh.nodes).T
            curlU2 = curlU0 + trilinear_interpolate(curl_grid(Wc, grid.spacing), grid, mesh.nodes).T
            assert rel_err(U[c], mesh.to_frame(U2)) <= 1e-14
            assert rel_err(curlU[c], mesh.to_frame(curlU2)) <= 1e-14

    def test_converges_below_tolerance(self, grid, contrast_medium):
        sol = solve_cgo_remainder(np.array([1.0, 0.0, 0.5]), 4.0, K, 1, contrast_medium, grid,
                                  tol=1e-10)
        assert sol.residual <= 1e-10
        assert remainder_norm(sol, 1.0) > 0.0

    def test_product_remainder_shrinks_when_t_doubles(self, grid, contrast_medium):
        """The conjugated resolvent decays like 1/t, so the product remainder
        over the unit ball must drop by at least 1.5x per doubling once t is
        past the pre-asymptotic range (t >= 5)."""
        xi = np.array([0.6, -0.2, 0.3])
        norms = []
        for t in (5.0, 10.0):
            s1 = solve_cgo_remainder(xi, t, K, 1, contrast_medium, grid)
            s2 = solve_cgo_remainder(xi, t, K, 2, contrast_medium, grid)
            _, r = cgo_product_remainder(s1, s2)
            norms.append(r.l2_norm(within_radius=1.0))
        assert norms[0] / norms[1] > 1.5

    def test_strong_contrast_hands_off_to_gmres(self, grid):
        """On a strong contrast the Neumann iteration stalls, on the full
        grid as on the box; the box solve then hands off to GMRES, and its W
        meets the full-grid fixed point. A tolerance GMRES cannot reach
        within max_iter restarts still raises."""
        hard = MediumSpec((Bump((0.0, 0.0, 0.0), 0.8, 0.95),), ball_radius=1.0)
        zeta, eta, _ = build_zeta_eta(np.array([0.5, 0.0, 0.0]), 2.2, K)
        zeta, eta = zeta[0], eta[0]
        res = ConjugatedResolvent(zeta, K, grid)
        km = K ** 2 * evaluate_on_grid(hard, grid).values.real[None]
        b = res.apply(-km * eta[:, None, None, None])

        def fixed_point(W):
            return W + res.apply(km * W)

        _, _, stalled, _ = neumann_solve(fixed_point, b, 1e-10, 60)
        assert stalled > 1e-4
        sol = CgoRemainderSolver(K, hard, grid).solve(zeta, eta)
        assert sol.residual <= 1e-10
        assert rel_err(fixed_point(sol.W), b) <= 1e-9
        with pytest.raises(SolverError) as exc:
            CgoRemainderSolver(K, hard, grid, tol=1e-18, max_iter=2).solve(zeta, eta)
        assert exc.value.residual_history

    def test_invalid_member_rejected(self, grid, contrast_medium):
        with pytest.raises(ValueError):
            solve_cgo_remainder(np.zeros(3), 3.0, K, 3, contrast_medium, grid)


class TestProductExpansion:
    def test_matches_direct_field_product(self, grid, contrast_medium):
        """U1 . U2 equals e^{-i xi x}(leading + r) pointwise inside the unit
        ball, with r assembled from the cross terms: at amplitude level, the
        product of the amplitudes equals leading + r."""
        xi = np.array([0.9, 0.4, -0.2])
        s1 = solve_cgo_remainder(xi, 3.5, K, 1, contrast_medium, grid)
        s2 = solve_cgo_remainder(xi, 3.5, K, 2, contrast_medium, grid)
        direct, expansion = cgo_product_identity(s1, s2)
        inside = grid.radii() < 1.0
        assert rel_err(direct[inside], expansion[inside]) < 1e-10

    def test_matches_the_split_expansion(self, grid, contrast_medium):
        """r from W equals the eight cross terms of (eta, f zeta, V), written
        out here with the derived split W = f zeta + V, to 1e-12 of max|r|;
        and f zeta + V gives W back to rounding."""
        xi = np.array([0.9, 0.4, -0.2])
        s1 = solve_cgo_remainder(xi, 3.5, K, 1, contrast_medium, grid)
        s2 = solve_cgo_remainder(xi, 3.5, K, 2, contrast_medium, grid)
        z1, z2, e1, e2 = s1.zeta, s2.zeta, s1.eta, s2.eta
        f1, f2, V1, V2 = s1.f.values, s2.f.values, s1.V.values, s2.V.values
        for f, z, V, s in ((f1, z1, V1, s1), (f2, z2, V2, s2)):
            assert np.any(s.W)
            assert np.max(np.abs(f[None] * z[:, None, None, None] + V - s.W)) <= (
                1e-15 * np.max(np.abs(s.W)))

        def dot(c, F):
            return np.tensordot(c, F, axes=1)

        want = (f2 * (e1 @ z2) + f1 * (e2 @ z1) + dot(e1, V2) + dot(e2, V1)
                + f1 * f2 * (z1 @ z2) + f1 * dot(z1, V2) + f2 * dot(z2, V1)
                + np.sum(V1 * V2, axis=0))
        _, r = cgo_product_remainder(s1, s2)
        assert np.max(np.abs(r.values - want)) <= 1e-12 * np.max(np.abs(r.values))

    def test_homogeneous_remainder_is_zero(self, grid):
        xi = np.array([0.3, 0.0, 0.0])
        hom = MediumSpec(ball_radius=1.0)
        s1 = solve_cgo_remainder(xi, 3.0, K, 1, hom, grid)
        s2 = solve_cgo_remainder(xi, 3.0, K, 2, hom, grid)
        leading, r = cgo_product_remainder(s1, s2)
        assert np.all(r.values == 0.0)
        assert leading == pytest.approx(build_zeta_eta(xi, 3.0, K)[2])

    def test_mismatched_pair_rejected(self, grid, contrast_medium):
        xi = np.array([0.3, 0.0, 0.0])
        s1 = solve_cgo_remainder(xi, 3.0, K, 1, contrast_medium, grid)
        with pytest.raises(ValueError):
            cgo_product_remainder(s1, s1)
        s2q = solve_cgo_remainder(xi, 4.0, K, 2, contrast_medium, grid)
        with pytest.raises(ValueError):
            cgo_product_remainder(s1, s2q)

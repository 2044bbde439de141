import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.fft import next_fast_len
from scipy.sparse.linalg import gmres

from stochmaxwell import cgo, resolvent
from stochmaxwell.cgo import (
    CgoRemainderSolver,
    ConjugatedResolvent,
    _symmetries,
    build_frame,
    build_zeta_eta,
    cgo_on_sphere,
    cgo_product_remainder,
    solve_cgo_remainder,
)
from stochmaxwell.forward import SolverError, curl_grid, neumann_solve
from stochmaxwell.greens import padded_apply, symmetric_symbol
from stochmaxwell.geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SphereMesh,
    evaluate_on_grid,
    trilinear_interpolate,
)
from stochmaxwell.reconstruct import DUAL_BLOCK, build_xi_lattice, select_parameters
from stochmaxwell.verify import cgo_product_identity, cgo_stencil_residual

from conftest import rel_err
from oracles import (
    l2_norm,
    padded_fft_reference,
    plane_wave_on,
    radii,
    remainder_norm,
    remainder_split,
)

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
    """The stability constants s and M1 are plain floats, checked by the
    parameter schedule that reads them."""

    def test_defaults_valid(self):
        t, rho = select_parameters(0.1, 1.0, 1.3, K)
        assert (t, rho) == select_parameters(0.1, s=1.0, R_prime=1.3, k=K, M1=1.0)
        assert t == 1.0 + 2.0 * K and rho == t ** (2.0 / 9.0)

    def test_nonpositive_rejected(self):
        for kwargs in ({"M1": 0.0}, {"s": -1.0}, {"s": 0.0}, {"M1": -3.5}):
            with pytest.raises(ConfigurationError):
                select_parameters(0.1, **{"s": 1.0, **kwargs}, R_prime=1.3, k=K)


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
    def symbol_lattice(zeta, grid, padded):
        kv = [2.0 * np.pi * np.fft.fftfreq(p, d=grid.spacing) for p in padded]
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
            kv, denom = cls.symbol_lattice(zeta, grid, res.padded)
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

    def test_padded_lattice_is_the_smallest_odd_fast_length(self):
        """An axis of n cells pads to the smallest odd m >= 2n - 1 with
        next_fast_len(m) == m. Its frequencies are closed under negation, so
        on an n^3 grid every signed axis permutation maps the lattice onto
        itself; on the 10 x 12 x 10 box, checked point by point, every one
        that exchanges only the two axes of length 10 does."""
        for n in range(2, 41):
            m = resolvent._padded_length(n)
            assert m % 2 == 1 and m >= 2 * n - 1 and next_fast_len(m) == m
            assert all(next_fast_len(j) != j for j in range(2 * n - 1, m, 2))
            f = np.fft.fftfreq(m) * m
            assert np.array_equal(np.sort(f), np.sort(-f))
        zeta = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        assert ConjugatedResolvent(zeta, K, self.GRID).padded == (21, 21, 21)
        p = ConjugatedResolvent(zeta, K, BOX).padded
        assert p == tuple(resolvent._padded_length(n) for n in BOX.dims) == (21, 25, 21)
        freqs = np.meshgrid(*(np.rint(np.fft.fftfreq(m) * m) for m in p), indexing="ij")
        lattice = np.stack([a.ravel() for a in freqs], axis=1)
        want, n_maps = np.unique(lattice, axis=0), 0
        for perm in itertools.permutations(range(3)):
            if [p[a] for a in perm] != list(p):
                continue
            for signs in itertools.product((-1.0, 1.0), repeat=3):
                P = np.zeros((3, 3))
                P[range(3), perm] = signs
                assert np.array_equal(np.unique(lattice @ P.T, axis=0), want)
                n_maps += 1
        assert n_maps == 16

    def test_average_on_the_characteristic_set_raises(self):
        """A cell one of whose subsamples is s = 0, where s^2 + 2 s.zeta
        vanishes for every zeta, raises SolverError naming zeta instead of
        writing inf into the symbol. With cells 24 wide the offsets include
        -11, -9 and -3 exactly, so the centre (11, 9, 3) has the subsample 0;
        the centre (12, 0, 6) has none. With a dyadic zeta every term is then
        exact, and the folded denominator is exactly 0."""
        zeta = np.array([1.0, 0.5j, -0.25])
        ds = (24.0, 24.0, 24.0)
        assert np.all(np.isfinite(resolvent._cell_averages(zeta, np.array([[12.0, 0.0, 6.0]]), ds)))
        with pytest.raises(SolverError, match=r"not finite.*characteristic set") as exc:
            resolvent._cell_averages(zeta, np.array([[12.0, 0.0, 6.0], [11.0, 9.0, 3.0]]), ds)
        assert str(zeta) in str(exc.value)

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
        symbol = symmetric_symbol(res.box_symbol(dims))
        box_apply = padded_apply(f, tuple(2 * s for s in dims), symbol, dims)
        assert rel_err(box_apply, res.apply(full)[box]) <= 1e-13


    @pytest.mark.parametrize("grid, lo, dims",
                             [(GRID, (4, 5, 3), (2, 3, 4)), (BOX, (3, 5, 4), (4, 3, 3))],
                             ids=["cube", "non-cubic"])
    @pytest.mark.parametrize("filled", [False, True], ids=["box-supported", "grid-filling"])
    def test_apply_is_the_padded_apply_of_its_multiplier(self, grid, lo, dims, filled):
        """The full-grid apply, from the input's box or from the whole grid,
        equals zero-padded fftn, the multiplier, ifftn and a crop on the
        padded lattice, with the six entries of the multiplier
        inv (I - q q^T / k^2), q = s + zeta."""
        zeta = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        res = ConjugatedResolvent(zeta, K, grid)
        q = np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(p, d=grid.spacing) for p in res.padded),
                        indexing="ij") + zeta[:, None, None, None]
        S = np.stack([res._inv * ((i == j) - q[i] * q[j] / K ** 2) for i, j in resolvent._UPPER])
        rng = np.random.default_rng(6)
        box = tuple(slice(a, a + s) for a, s in zip(lo, dims)) if not filled else None
        shape = (3,) + (dims if not filled else grid.dims)
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.zeros((3,) + grid.dims, dtype=np.complex128)
        full[(slice(None),) + (box or ())] = f
        want = padded_fft_reference(full, res.padded, symmetric_symbol(S), grid.dims)
        assert rel_err(res.apply(f, box), want) <= 1e-13
        assert rel_err(res.apply(full), want) <= 1e-13

    @pytest.mark.parametrize(
        "P, dims, unmapped",
        [(-np.eye(3), (2, 3, 4), None),
         (np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]), (3, 3, 3), (3, 3, 4))],
        ids=["mirror", "two-reflections"],
    )
    def test_lent_box_symbol_matches_direct_build(self, P, dims, unmapped):
        """A build lent a box symbol through P and conjugation maps it,
        S(w) = conj(P S0(P^T w) P^T): within 1e-13 relative of a direct
        build's, and twice the lent one when the lender's is doubled. On a
        box whose lattice P does not map onto itself it forms its own."""
        grid = self.GRID
        zp = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        zeta = np.conj(P @ zp)
        lender = ConjugatedResolvent(zp, K, grid)
        S0 = lender.box_symbol(dims)
        lent = ConjugatedResolvent(zeta, K, grid, lend=(lender.near, S0, P, True))
        doubled = ConjugatedResolvent(zeta, K, grid, lend=(lender.near, 2.0 * S0, P, True))
        want = ConjugatedResolvent(zeta, K, grid).box_symbol(dims)
        assert rel_err(lent.box_symbol(dims), want) <= 1e-13
        assert np.array_equal(doubled.box_symbol(dims), 2.0 * lent.box_symbol(dims))
        if unmapped is not None:
            S0 = lender.box_symbol(unmapped)
            lent = ConjugatedResolvent(zeta, K, grid, lend=(lender.near, S0, P, True))
            doubled = ConjugatedResolvent(zeta, K, grid, lend=(lender.near, 2.0 * S0, P, True))
            assert np.array_equal(doubled.box_symbol(unmapped), lent.box_symbol(unmapped))

    @pytest.mark.parametrize(
        "xi, azimuth",
        [((0.0, 0.0, 0.7), 0.0), ((0.6, -0.3, 0.2), 0.0), ((1.43, 0.0, 0.0), 0.0)],
    )
    @pytest.mark.parametrize("which", [1, 2])
    def test_mirror_matches_direct_build(self, xi, azimuth, which):
        """The resolvent of zeta' = -conj(zeta), lent the near data of the
        resolvent of zeta with P = -I and conjugation, equals a direct build
        on every bin; the bins it borrows are exactly its near bins."""
        grid = self.GRID
        xi = np.array(xi)
        zp = build_zeta_eta(xi, 5.0, K, azimuth=azimuth)[0][which - 1]
        zeta = build_zeta_eta(-xi, 5.0, K, azimuth=azimuth)[0][2 - which]
        assert np.array_equal(zeta, -np.conj(zp))
        near = ConjugatedResolvent(zp, K, grid).near
        direct = ConjugatedResolvent(zeta, K, grid)
        mirrored = ConjugatedResolvent(zeta, K, grid, lend=(near, None, -np.eye(3), True))
        assert np.max(np.abs(mirrored._inv - direct._inv) / np.abs(direct._inv)) <= 1e-12
        assert np.array_equal(borrowed_bins(zeta, grid, near, -np.eye(3), True), near_mask(direct))

    def test_signed_permutation_borrows_every_near_bin(self):
        """Lent through a permutation that reflects two of three axes, the
        resolvent equals a direct build within 1e-9 relative, and the bins it
        borrows are exactly its near bins."""
        grid = self.GRID
        P = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        zp = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        zeta = np.conj(P @ zp)
        near = ConjugatedResolvent(zp, K, grid).near
        direct = ConjugatedResolvent(zeta, K, grid)
        lent = ConjugatedResolvent(zeta, K, grid, lend=(near, None, P, True))
        assert np.max(np.abs(lent._inv - direct._inv) / np.abs(direct._inv)) <= 1e-9
        want = near_mask(direct)
        assert want.any() and np.array_equal(borrowed_bins(zeta, grid, near, P, True), want)


def borrowed_bins(zeta, grid, near, P, conj):
    """Bins whose multiplier changes when the lender's averages are doubled."""
    lent = ConjugatedResolvent(zeta, K, grid, lend=(near, None, P, conj))
    doubled = ConjugatedResolvent(zeta, K, grid, lend=((near[0], 2.0 * near[1]), None, P, conj))
    return doubled._inv != lent._inv


def near_mask(res):
    """The near bins of `res` on its padded lattice."""
    mask = np.zeros(res._inv.size, dtype=bool)
    mask[res.near[0]] = True
    return mask.reshape(res.padded)


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
        got, _ = solver.solve(zeta.reshape(-1, 3), eta.reshape(-1, 3))
        assert lent == [False, False, True, True]
        for (i, w), W in zip([(i, w) for i in (0, 1) for w in (0, 1)], got):
            fresh = CgoRemainderSolver(K, contrast_medium, self.GRID)
            assert rel_err(W, fresh.solve(zeta[i, w][None], eta[i, w][None])[0][0]) <= 1e-12

    def test_zero_frequency_builds_directly(self, contrast_medium, lent):
        """xi = 0 builds one resolvent directly: zeta_2(0) = -zeta_1(0)
        shares the orbit of zeta_1(0), so it and the repeat borrow."""
        zeta, eta, _ = build_zeta_eta(np.zeros(3), 5.0, K)
        assert np.array_equal(zeta[1], -zeta[0])
        solver = CgoRemainderSolver(K, contrast_medium, self.GRID)
        for w in (0, 1, 0):
            solver.solve(zeta[w][None], eta[w][None])
        assert lent == [False, True, True]

    def test_lends_only_within_the_match_tolerance(self, contrast_medium, lent):
        """A zeta 1e-10 relative off every image of an earlier build builds
        directly; one 1e-14 off borrows."""
        zeta = build_zeta_eta(np.array([0.6, -0.3, 0.2]), 5.0, K)[0][0]
        solver = CgoRemainderSolver(K, contrast_medium, self.GRID)
        solver._resolvents(np.array([zeta, (1.0 + 1e-10) * zeta, (1.0 + 1e-14) * zeta]))
        assert lent == [False, False, True]

    def test_lends_across_a_rounding_boundary(self, contrast_medium, lent):
        """Two zetas 2e-13 of max|zeta| apart borrow one build although the
        real part that differs, (3.5e-9 +- 1e-13) max|zeta|, straddles a
        boundary of 9 rounded digits: matching compares the vectors, not
        rounded forms of them."""
        top = (1.0 + 0.2j) * 5.0
        zetas = [abs(top) * np.array([3.5e-9 + e + 0.5j, 3.2e-9 + 0.1j, 0.0]) + [0.0, 0.0, top]
                 for e in (1e-13, -1e-13)]
        CgoRemainderSolver(K, contrast_medium, self.GRID)._resolvents(np.array(zetas))
        assert lent == [False, True]

    @pytest.mark.parametrize("dims, size", [((10, 10, 10), 48), ((10, 12, 10), 16)])
    def test_symmetries_keep_the_grid(self, dims, size):
        """The signed permutations of equal-length axes: 48 on a cube, 16 when
        one axis differs, each orthogonal and mapping the dims onto
        themselves, the identity first."""
        syms = _symmetries(dims)
        assert len(syms) == size and len(np.unique(syms, axis=0)) == size
        assert np.array_equal(syms[0], np.eye(3))
        for P in syms:
            assert np.array_equal(P @ P.T, np.eye(3))
            assert np.array_equal(np.abs(P) @ dims, dims)

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
        got = solver._resolvents(np.array(zetas))
        assert lent == want
        for zeta, res in zip(zetas, got):
            direct = ConjugatedResolvent(zeta, K, grid)
            assert np.max(np.abs(res._inv - direct._inv) / np.abs(direct._inv)) <= 1e-9

    def test_bench_schedule_averages_each_bin_once_per_orbit(self, monkeypatch):
        """The inhomogeneous bench schedule (10^3 grid, t = 5, rho = 5^(2/9),
        390 columns in blocks of DUAL_BLOCK): every resolvent the solver
        builds equals, within 1e-9 relative on every bin, a build that
        averages all its near bins itself; and the bins averaged directly are
        exactly the near bins of each orbit's first build: a lent build
        averages none."""
        grid = Grid3.for_ball(1.3, 10)
        xi = build_xi_lattice(5.0 ** (2.0 / 9.0), 1.3)[0]
        zeta = build_zeta_eta(xi[: len(xi) // 2 + 1, None], 5.0, K, np.zeros((1, 1)))[0]
        zeta = zeta.reshape(-1, 3)
        assert len(zeta) == 390
        averaged, lends = [], []
        kernel, init = resolvent._cell_averages, ConjugatedResolvent.__init__
        monkeypatch.setattr(resolvent, "_cell_averages",
                            lambda z, s0, ds: averaged.append(len(s0)) or kernel(z, s0, ds))

        def recording(self, zeta, k, grid, lend=None):
            lends.append(lend)
            init(self, zeta, k, grid, lend)

        monkeypatch.setattr(cgo.ConjugatedResolvent, "__init__", recording)
        solver = CgoRemainderSolver(K, MediumSpec(ball_radius=1.0), grid)
        built = [r for b in range(0, len(zeta), DUAL_BLOCK)
                 for r in solver._resolvents(zeta[b : b + DUAL_BLOCK])]
        n_averaged, lends = sum(averaged), lends[: len(built)]
        assert 0 < lends.count(None) < len(built)
        first = 0
        for z, res, lend in zip(zeta, built, lends):
            plain = ConjugatedResolvent(z, K, grid)
            assert np.max(np.abs(res._inv - plain._inv) / np.abs(plain._inv)) <= 1e-9
            if lend is None:
                first += len(plain.near[0])
        assert first == n_averaged

    def test_bench_schedule_forms_each_box_symbol_once_per_orbit(self, monkeypatch):
        """On the inhomogeneous bench schedule and medium, `box_symbol`'s
        products run once per orbit (31 times for 390 columns) and
        `_cell_averages` runs for each orbit's first build only: a lent
        build borrows its box symbol and every near bin."""
        grid = Grid3.for_ball(1.3, 10)
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
        xi = build_xi_lattice(5.0 ** (2.0 / 9.0), 1.3)[0]
        zeta, eta, _ = build_zeta_eta(xi[: len(xi) // 2 + 1, None], 5.0, K, np.zeros((1, 1)))
        zeta, eta = zeta.reshape(-1, 3), eta.reshape(-1, 3)
        averaged, products, builds = [], [], []
        kernel, dft = resolvent._cell_averages, resolvent._grid_idft
        init = ConjugatedResolvent.__init__
        monkeypatch.setattr(resolvent, "_cell_averages",
                            lambda z, s0, ds: averaged.append(len(s0)) or kernel(z, s0, ds))
        monkeypatch.setattr(resolvent, "_grid_idft",
                            lambda p, lo, hi: products.append(p) or dft(p, lo, hi))

        def recording(self, zeta, k, grid, lend=None):
            before = len(averaged)
            init(self, zeta, k, grid, lend)
            builds.append((lend is None, len(averaged) > before))

        monkeypatch.setattr(cgo.ConjugatedResolvent, "__init__", recording)
        solver = CgoRemainderSolver(K, medium, grid)
        for b in range(0, len(zeta), DUAL_BLOCK):
            solver.solve(zeta[b : b + DUAL_BLOCK], eta[b : b + DUAL_BLOCK])
        assert len(builds) == 390 and all(first == averages for first, averages in builds)
        assert len(products) == 3 * 31 and sum(first for first, _ in builds) == 31
        assert all(averaged)

    @pytest.mark.parametrize("grid", [GRID, BOX], ids=["cube", "non-cubic"])
    def test_box_solve_matches_full_grid_iteration(self, contrast_medium, grid):
        """The solve on the contrast's support box agrees with the Neumann
        iteration over the full-grid apply, and the W it returns meets the
        full-grid fixed point."""
        tol = 1e-13
        zeta, eta, _ = build_zeta_eta(np.array([0.9, 0.4, -0.2]), 5.0, K)
        zeta, eta = zeta[0], eta[0]
        W = CgoRemainderSolver(K, contrast_medium, grid, tol=tol).solve(zeta[None], eta[None])[0][0]
        res = ConjugatedResolvent(zeta, K, grid)
        km = K ** 2 * evaluate_on_grid(contrast_medium, grid)[None]
        b = res.apply(-km * eta[:, None, None, None])

        def fixed_point(W):
            return W + res.apply(km * W)

        want = neumann_solve(lambda W, _: fixed_point(W), b[None], tol, 60)[0][0]
        assert rel_err(W, want) <= 10 * tol
        assert rel_err(fixed_point(W), b) <= 10 * tol

    def test_one_full_grid_apply_per_solve(self, contrast_medium, monkeypatch):
        """The iteration runs on the support box; only the final evaluation
        of W on the whole grid goes through the full-grid apply, once per
        column of the block and one column at a time, from the values on the
        support box."""
        calls = []
        apply = ConjugatedResolvent.apply

        def counted(self, f, box=None):
            out = apply(self, f, box)
            calls.append((f.shape, out.shape))
            return out

        monkeypatch.setattr(cgo.ConjugatedResolvent, "apply", counted)
        zeta, eta, _ = build_zeta_eta(np.array([[0.9, 0.4, -0.2], [0.3, 0.0, 0.5]]), 5.0, K)
        solver = CgoRemainderSolver(K, contrast_medium, self.GRID)
        W, _ = solver.solve(zeta.reshape(-1, 3), eta.reshape(-1, 3))
        assert np.all(np.any(W, axis=(1, 2, 3, 4)))
        assert calls == [((3,) + solver._km.shape[1:], (3,) + self.GRID.dims)] * 4

    # xi, a signed permutation of it, its antipode and 0: the 16 columns of
    # their two members and two frames share orbits
    BLOCK_XI = np.array([[0.6, -0.3, 0.2], [-0.2, 0.6, 0.3], [-0.6, 0.3, -0.2], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("order", ["lattice", "reversed", "shuffled"])
    def test_block_equals_single_column_calls(self, contrast_medium, lent, order):
        """16 columns solved as one block equal, bit for bit, 16 single-column
        calls on a solver of their own in the same order, whichever column
        of an orbit comes first and lends to the rest: each column leaves
        the Neumann batch on its own residual, and lending follows the
        column order in both."""
        zeta, eta, _ = build_zeta_eta(self.BLOCK_XI[:, None], 5.0, K, np.array([0.0, 0.9])[None])
        zeta, eta = zeta.reshape(-1, 3), eta.reshape(-1, 3)
        perm = {"lattice": np.arange(16), "reversed": np.arange(16)[::-1],
                "shuffled": np.random.default_rng(4).permutation(16)}[order]
        zeta, eta = zeta[perm], eta[perm]
        W, res = CgoRemainderSolver(K, contrast_medium, self.GRID).solve(zeta, eta)
        assert len(lent) == 16 and 0 < lent.count(True) < 16, lent
        single = CgoRemainderSolver(K, contrast_medium, self.GRID)
        for c in range(16):
            Wc, rc = single.solve(zeta[c : c + 1], eta[c : c + 1])
            assert np.array_equal(W[c], Wc[0]) and res[c] == rc[0]
        assert lent[16:] == lent[:16]

    def test_block_peak_memory_is_its_symbols_and_one_column(self, contrast_medium):
        """A 16-column block on the 10^3 grid holds what it returns, W
        (16 x 3 n^3 complex), and each column's reciprocal symbol inv (p^3
        complex on the 21^3 padded lattice) with its near-bin data, from the
        column's build to its full-grid apply. Everything else is one
        column's work at a time: a direct build (measured here for the
        column with the most near bins, its own symbol included) or a
        full-grid apply, whose padded transforms (3 p^3 complex) are live
        with the next stage's output, of the same size at most. Applying the
        16 columns at once would add 15 columns' transforms (13.3 MB);
        symbols held as six-entry multipliers would add 16 x 6 p^3 complex
        (14.2 MB)."""
        zeta, eta, _ = build_zeta_eta(self.BLOCK_XI[:, None], 5.0, K, np.array([0.0, 0.9])[None])
        zeta, eta = zeta.reshape(-1, 3), eta.reshape(-1, 3)
        resolvents = CgoRemainderSolver(K, contrast_medium, self.GRID)._resolvents(zeta)
        held = sum(r._inv.nbytes + r.near[0].nbytes + r.near[1].nbytes for r in resolvents)
        widest = zeta[np.argmax([len(r.near[0]) for r in resolvents])]
        p = resolvents[0].padded
        del resolvents
        CgoRemainderSolver(K, contrast_medium, self.GRID).solve(zeta[:1], eta[:1])  # warm caches
        tracemalloc.start()
        try:
            ConjugatedResolvent(widest, K, self.GRID)
            build = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            CgoRemainderSolver(K, contrast_medium, self.GRID).solve(zeta, eta)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        W = 16 * 3 * 10 ** 3 * 16
        transforms = 2 * 3 * np.prod(p) * 16
        assert peak <= W + held + max(build, transforms)

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
        """Stacked (C, 3) phase/polarization pairs with no correction
        (W = None) give (C, N, 2) samples equal, column by column, to one
        call per pair and to the Cartesian plane wave projected onto the
        frame."""
        grid = Grid3.for_ball(1.3, 10)
        mesh = SphereMesh(1.0, 8)
        xis = np.array([[0.0, 0.0, 0.0], [1.2, -0.4, 2.0], [-3.0, 0.5, 0.1]])
        zeta, eta, _ = build_zeta_eta(xis[:, None], 5.0, K, np.array([0.0, 0.9])[None])
        zeta, eta = zeta[..., which - 1, :].reshape(-1, 3), eta[..., which - 1, :].reshape(-1, 3)
        U, curlU = cgo_on_sphere(zeta, eta, None, grid, mesh)
        assert U.shape == curlU.shape == (len(zeta), mesh.n_nodes, 2)
        for c in range(len(zeta)):
            U1, curlU1 = cgo_on_sphere(zeta[c : c + 1], eta[c : c + 1], None, grid, mesh)
            assert rel_err(U[c], U1[0]) <= 1e-15
            assert rel_err(curlU[c], curlU1[0]) <= 1e-15
            U2, curlU2 = plane_wave_on(zeta[c], eta[c], mesh.nodes)
            assert rel_err(U[c], mesh.to_frame(U2)) <= 1e-14
            assert rel_err(curlU[c], mesh.to_frame(curlU2)) <= 1e-14

    def test_constant_correction_has_the_exact_phase(self):
        """For a constant correction W the samples are e^{i zeta x_n}(eta + W)
        and e^{i zeta x_n} i zeta x (eta + W) at the nodes to rounding: the
        stencil curl of a constant is 0 and the phase is taken at the node,
        not interpolated (that would err by order (|zeta| h)^2)."""
        grid = Grid3.for_ball(1.3, 10)
        mesh = SphereMesh(1.0, 8)
        xis = np.array([[0.0, 0.0, 0.0], [1.2, -0.4, 0.3]])
        zeta, eta, _ = build_zeta_eta(xis[:, None], 3.0, K, np.array([0.0, 0.9])[None])
        zeta, eta = zeta.reshape(-1, 3), eta.reshape(-1, 3)
        w = np.array([0.3 - 0.1j, -0.2, 0.05 + 0.4j])
        W = np.broadcast_to(w[None, :, None, None, None], (len(zeta), 3) + grid.dims)
        U, curlU = cgo_on_sphere(zeta, eta, W, grid, mesh)
        for c in range(len(zeta)):
            phase = np.exp(1j * mesh.nodes @ zeta[c])[:, None]
            amp = eta[c] + w
            assert rel_err(U[c], mesh.to_frame(phase * amp)) <= 1e-13
            assert rel_err(curlU[c], mesh.to_frame(phase * np.cross(1j * zeta[c], amp))) <= 1e-13


class TestCornerSampling:
    @pytest.mark.parametrize("radius, lmax, lo, hi", [(1.0, 12, 2, 7), (2.1, 6, 0, 9)],
                             ids=["bench-sphere", "wrapping-stencil"])
    def test_equals_curl_and_interpolation_on_the_whole_grid(self, radius, lmax, lo, hi):
        """W and its stencil curl formed at the interpolation's corner cells
        only equal `curl_grid` on the whole grid followed by
        `trilinear_interpolate`, bit for bit: on the bench's 10^3 grid, where
        the lmax-12 sphere's corners span cells 2-7, and on a sphere whose
        corners reach the box faces, where the stencils wrap."""
        grid = Grid3.for_ball(1.3, 10)
        nodes = SphereMesh(radius, lmax).nodes
        cells = np.array(np.unravel_index(cgo._trilinear_stencil(grid, nodes)[0], grid.dims))
        assert cells.min() == lo and cells.max() == hi
        rng = np.random.default_rng(8)
        W = rng.standard_normal((5, 3) + grid.dims) + 1j * rng.standard_normal((5, 3) + grid.dims)
        want = trilinear_interpolate(np.concatenate([W, curl_grid(W, grid.spacing)], axis=1),
                                     grid, nodes)
        assert np.array_equal(np.moveaxis(cgo._corner_samples(W, grid, nodes), 0, -1), want)


class TestContrastSolution:
    def test_stacked_columns_match_single_calls(self, contrast_medium):
        """Stacked solutions on the sphere equal, column by column, one
        single-column `cgo_on_sphere` call per solution, with their
        remainders and without (W = None, the plane-wave pairs); and a
        per-column evaluation written out here: the Cartesian plane wave
        plus the nodal phase times the interpolated W and i zeta x W +
        curl W (stencil curl), projected onto the frame."""
        grid = Grid3.for_ball(1.3, 10)
        mesh = SphereMesh(1.0, 8)
        sols = [
            solve_cgo_remainder(np.array(xi), 5.0, K, w, contrast_medium, grid)
            for xi in ([0.0, 0.0, 0.0], [1.2, -0.4, 0.3]) for w in (1, 2)
        ]
        zeta, eta = np.array([s.zeta for s in sols]), np.array([s.eta for s in sols])
        W = np.array([s.W for s in sols])
        assert np.any(W)
        for Ws in (W, None):
            U, curlU = cgo_on_sphere(zeta, eta, Ws, grid, mesh)
            assert U.shape == curlU.shape == (len(sols), mesh.n_nodes, 2)
            for c, sol in enumerate(sols):
                Wc = None if Ws is None else Ws[c : c + 1]
                U1, curlU1 = cgo_on_sphere(zeta[c : c + 1], eta[c : c + 1], Wc, grid, mesh)
                assert rel_err(U[c], U1[0]) <= 1e-14
                assert rel_err(curlU[c], curlU1[0]) <= 1e-14
                U2, curlU2 = plane_wave_on(sol.zeta, sol.eta, mesh.nodes)
                if Ws is not None:
                    phase = np.exp(1j * mesh.nodes @ sol.zeta)[:, None]
                    Wn = trilinear_interpolate(sol.W, grid, mesh.nodes).T
                    cWn = trilinear_interpolate(curl_grid(sol.W, grid.spacing), grid, mesh.nodes).T
                    U2 = U2 + phase * Wn
                    curlU2 = curlU2 + phase * (np.cross(1j * sol.zeta, Wn) + cWn)
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
            norms.append(l2_norm(r, grid, within_radius=1.0))
        assert norms[0] / norms[1] > 1.5

    def test_strong_contrast_hands_off_to_gmres(self, grid, monkeypatch):
        """On a strong contrast the Neumann iteration stalls, on the full
        grid as on the box; each column of the block then goes to GMRES on
        its own, and its W meets the full-grid fixed point. A tolerance
        GMRES cannot reach within max_iter restarts still raises, naming the
        column."""
        hard = MediumSpec((Bump((0.0, 0.0, 0.0), 0.8, 0.95),), ball_radius=1.0)
        zeta, eta, _ = build_zeta_eta(np.array([0.5, 0.0, 0.0]), 2.2, K)
        sizes = []
        monkeypatch.setattr(scipy.sparse.linalg, "gmres",
                            lambda A, b, **kw: sizes.append(b.size) or gmres(A, b, **kw))
        solver = CgoRemainderSolver(K, hard, grid)
        W, residual = solver.solve(zeta, eta)
        assert sizes == [3 * solver._km.size] * 2
        km = K ** 2 * evaluate_on_grid(hard, grid)[None]
        for z, e, Wc, r in zip(zeta, eta, W, residual):
            res = ConjugatedResolvent(z, K, grid)
            b = res.apply(-km * e[:, None, None, None])

            def fixed_point(W):
                return W + res.apply(km * W)

            stalled = neumann_solve(lambda W, _: fixed_point(W), b[None], 1e-10, 60)[2][0]
            assert stalled > 1e-4
            assert r <= 1e-10
            assert rel_err(fixed_point(Wc), b) <= 1e-9
        with pytest.raises(SolverError, match="system 0") as exc:
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
        inside = radii(grid) < 1.0
        assert rel_err(direct[inside], expansion[inside]) < 1e-10

    def test_matches_the_split_expansion(self, grid, contrast_medium):
        """r from W equals the eight cross terms of (eta, f zeta, V), written
        out here with the derived split W = f zeta + V, to 1e-12 of max|r|;
        and f zeta + V gives W back to rounding."""
        xi = np.array([0.9, 0.4, -0.2])
        s1 = solve_cgo_remainder(xi, 3.5, K, 1, contrast_medium, grid)
        s2 = solve_cgo_remainder(xi, 3.5, K, 2, contrast_medium, grid)
        z1, z2, e1, e2 = s1.zeta, s2.zeta, s1.eta, s2.eta
        (f1, V1), (f2, V2) = remainder_split(s1), remainder_split(s2)
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
        assert np.max(np.abs(r - want)) <= 1e-12 * np.max(np.abs(r))

    def test_homogeneous_remainder_is_zero(self, grid):
        xi = np.array([0.3, 0.0, 0.0])
        hom = MediumSpec(ball_radius=1.0)
        s1 = solve_cgo_remainder(xi, 3.0, K, 1, hom, grid)
        s2 = solve_cgo_remainder(xi, 3.0, K, 2, hom, grid)
        leading, r = cgo_product_remainder(s1, s2)
        assert np.all(r == 0.0)
        assert leading == pytest.approx(build_zeta_eta(xi, 3.0, K)[2])

    def test_mismatched_pair_rejected(self, grid, contrast_medium):
        xi = np.array([0.3, 0.0, 0.0])
        s1 = solve_cgo_remainder(xi, 3.0, K, 1, contrast_medium, grid)
        with pytest.raises(ValueError):
            cgo_product_remainder(s1, s1)
        s2q = solve_cgo_remainder(xi, 4.0, K, 2, contrast_medium, grid)
        with pytest.raises(ValueError):
            cgo_product_remainder(s1, s2q)

import itertools

import numpy as np
import pytest

from stochmaxwell.geometry import Grid3
from scipy import fft as sfft

from stochmaxwell import greens, verify
from stochmaxwell.greens import (
    FreeConvolver,
    SingularityError,
    dyadic_green,
    helmholtz_g,
    padded_fft_apply,
    symmetric_symbol,
)
from stochmaxwell.verify import (
    convolution_vs_direct,
    green_hessian_fd,
    green_reciprocity,
    near_cell_probe,
)

from conftest import rel_err
from oracles import electric_dipole_field, helmholtz_residual, resolvent_decay_probe


class TestScalarKernel:
    def test_helmholtz_g_value(self):
        # closed form at r = 1, lam = 2: e^{2i} / (4 pi)
        want = np.exp(2j) / (4 * np.pi)
        assert helmholtz_g(2.0, 1.0) == pytest.approx(want)

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            helmholtz_g(2.0, 0.0)

    def test_helmholtz_equation_residual_order(self):
        # (Delta + lam^2) g = 0 away from the origin; centered FD residual O(h^2)
        res = [helmholtz_residual(3.0, [0.4, 0.3, -0.2], h) for h in (1e-2, 5e-3)]
        assert res[1] < res[0] / 3.0  # halving h shrinks the residual ~4x


class TestDyadicGreen:
    def test_reciprocity(self):
        assert green_reciprocity(2.0, np.random.default_rng(5), 50, 0.05) < 1e-12

    def test_symmetric_tensor(self):
        G = dyadic_green(2.0, np.array([0.3, 0.1, 0.2]), np.zeros(3))
        assert np.max(np.abs(G - G.T)) < 1e-14

    def test_coincidence_rejected(self):
        with pytest.raises(SingularityError):
            dyadic_green(2.0, np.zeros(3), np.zeros(3))

    def test_matches_finite_difference_hessian(self):
        """The closed form equals i lam g I + (i/lam) H, with H the central-
        difference Hessian of helmholtz_g: a check that shares no algebra
        with dyadic_green, which the convolver and trace-map tests trust."""
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            x, y = rng.uniform(-1.0, 1.0, (2, 3))
            if np.linalg.norm(x - y) < 0.1:
                continue
            assert green_hessian_fd(2.0, x, y, 1e-4) <= 1e-5
            checked += 1


class TestVerifyProbes:
    """The Green-tensor probes of `stochmaxwell verify` pass on the program
    and fail on a fault."""

    def test_hessian_probe_detects_a_scaled_green_tensor(self, monkeypatch):
        args = (2.0, (0.3, -0.2, 0.5), (-0.1, 0.2, 0.1), 1e-4)
        assert green_hessian_fd(*args) <= 1e-6
        monkeypatch.setattr(verify, "dyadic_green",
                            lambda lam, x, y: (1.0 + 1e-5) * dyadic_green(lam, x, y))
        assert green_hessian_fd(*args) > 1e-6

    def test_near_cell_probe_needs_the_corrected_block(self, monkeypatch):
        """With product integration cut to the 3^3 block, the probe at
        (2, -1, 3) cells reads a point value, not the cell average."""
        probe = (2.0, Grid3.cube(1.0, 12), np.array([1.0, 0.5j, -0.25]), [(1, 0, 0), (2, -1, 3)])
        assert near_cell_probe(*probe) <= 1e-6
        monkeypatch.setattr(greens, "_CORRECTION_CELLS", 1)
        assert near_cell_probe(*probe) > 1e-3


class TestPaddedFftApply:
    def test_matches_full_padded_transforms(self):
        """The axis-by-axis pruned transform equals zero-padded fftn, the
        symbol, ifftn and a crop, on a non-cubic grid with a batch axis."""
        rng = np.random.default_rng(3)
        f = rng.standard_normal((2, 5, 6, 7)) + 1j * rng.standard_normal((2, 5, 6, 7))
        padded = (10, 12, 15)
        mult = rng.standard_normal(padded) + 1j * rng.standard_normal(padded)
        got = padded_fft_apply(f, padded, lambda fh: fh * mult)
        axes = (-3, -2, -1)
        want = sfft.ifftn(sfft.fftn(f, s=padded, axes=axes) * mult, axes=axes)[..., :5, :6, :7]
        assert got.shape == f.shape
        assert rel_err(got, want) <= 1e-14


class TestSymmetricSymbol:
    def test_matches_three_term_sum_on_batched_input(self):
        """The in-place accumulation gives the bits of the explicit sum
        S[e0] f0 + S[e1] f1 + S[e2] f2 per output component."""
        rng = np.random.default_rng(5)
        S = rng.standard_normal((6, 4, 5, 6)) + 1j * rng.standard_normal((6, 4, 5, 6))
        f = rng.standard_normal((2, 3, 3, 4, 5, 6)) + 1j * rng.standard_normal((2, 3, 3, 4, 5, 6))
        fj = [f[..., j, :, :, :] for j in range(3)]
        want = np.stack([S[a] * fj[0] + S[b] * fj[1] + S[c] * fj[2] for a, b, c in greens._ENTRY],
                        axis=-4)
        assert np.array_equal(symmetric_symbol(S)(f), want)


def full_block_near_cell_averages(lam, h, nc):
    """The near-cell table with a Gauss rule on every one of the (2 nc + 1)^3
    cells and the singular cell over the whole 64 x 128 (u, phi) direction
    grid, no symmetry used: the reference for `greens._near_cell_averages`."""
    def cube(x):
        return np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)

    offs = cube(np.arange(-nc, nc + 1))
    x, w = np.polynomial.legendre.leggauss(12)
    wn = np.prod(cube(w), axis=1) / 8.0
    iu, ju = np.array(greens._UPPER).T
    avg = np.empty((6, len(offs)), dtype=np.complex128)
    for s, o in enumerate(offs):
        pts = o * h + 0.5 * h * cube(x)
        a, b = greens._green_coeffs(lam, np.linalg.norm(pts, axis=1))
        avg[:, s] = (b * wn) @ (pts[:, iu] * pts[:, ju])
        avg[iu == ju, s] += a @ wn

    u, wu = np.polynomial.legendre.leggauss(64)
    U, P = np.meshgrid(u, (np.arange(128) + 0.5) * (2.0 * np.pi / 128), indexing="ij")
    su = np.sqrt(1.0 - U ** 2)
    omega = np.stack([su * np.cos(P), su * np.sin(P), U], axis=-1).reshape(-1, 3)
    wang = np.repeat(wu, 128) * (2.0 * np.pi / 128)
    rho = 0.5 * h / np.max(np.abs(omega), axis=1)
    e = np.exp(1j * lam * rho)
    int_g = np.sum(wang * (rho * e / (1j * lam) + (e - 1.0) / lam ** 2)) / (4.0 * np.pi)
    xg, wg = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (rho - 0.5 * h)
    rr = (0.5 * (rho + 0.5 * h))[:, None] + half[:, None] * xg
    wt = wang * np.sum(wg * greens._green_coeffs(lam, rr)[1] * rr ** 4, axis=1) * half
    T = np.einsum("q,qi,qj->ij", wt, omega, omega) - np.eye(3) * np.sum(wt) / 3.0
    iso = (-(lam ** 2) * int_g - 1.0) / 3.0
    G0 = (T + (1j * lam * int_g + (1j / lam) * iso) * np.eye(3)) / h ** 3
    avg[:, len(offs) // 2] = G0[iu, ju]
    return offs, avg


def full_tensors(avg):
    """(n, 3, 3) symmetric tensors from the six stored entries (6, n)."""
    iu, ju = np.array(greens._UPPER).T
    M = np.empty((avg.shape[1], 3, 3), dtype=avg.dtype)
    M[:, iu, ju] = avg.T
    M[:, ju, iu] = avg.T
    return M


SIGNED_PERMUTATIONS = [(np.array(p), np.array(s))
                       for p in itertools.permutations(range(3))
                       for s in itertools.product((1, -1), repeat=3)]


class TestNearCellAverages:
    def test_cached_equals_uncached_and_is_read_only(self):
        offs, avg = greens._near_cell_averages(1.7, 0.11, 2)
        assert greens._near_cell_averages(1.7, 0.11, 2)[1] is avg
        want_offs, want_avg = greens._near_cell_averages.__wrapped__(1.7, 0.11, 2)
        assert np.array_equal(offs, want_offs) and np.array_equal(avg, want_avg)
        for arr in (offs, avg):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("lam, h, nc", [(2.0, 0.52, 3), (2.0, 0.0929, 3), (1.7, 0.11, 2),
                                            (5.0, 0.26, 3), (2.0, 0.52, 1)],
                             ids=["inhom-grid", "desk-grid", "nc2", "k5", "nc1"])
    def test_matches_the_full_block_quadrature(self, lam, h, nc):
        """The wedge table equals the one integrated cell by cell over the
        whole block and the whole direction grid, offsets in the same order."""
        offs, avg = greens._near_cell_averages.__wrapped__(lam, h, nc)
        want_offs, want = full_block_near_cell_averages(lam, h, nc)
        assert np.array_equal(offs, want_offs)
        c = len(offs) // 2
        assert np.array_equal(offs[c], [0, 0, 0])
        reg = np.arange(len(offs)) != c
        assert np.max(np.abs(avg[:, reg] - want[:, reg])) <= 1e-13 * np.max(np.abs(want[:, reg]))
        # the singular cell is isotropic: the reference's traceless part is
        # only the error of its direction grid, and the table's is exactly 0
        iu, ju = np.array(greens._UPPER).T
        iso = np.sum(want[iu == ju, c]) / 3.0
        assert np.all(avg[iu != ju, c] == 0.0)
        assert np.all(avg[iu == ju, c] == avg[0, c])
        assert abs(avg[0, c] - iso) <= 1e-13 * abs(iso)

    @pytest.mark.parametrize("lam, h, nc", [(2.0, 0.52, 3), (1.7, 0.11, 2)])
    def test_signed_permutation_covariance_is_exact(self, lam, h, nc):
        """table[P o] == P table[o] P^T bit for bit for all 48 signed
        permutations P and every cell o, the singular cell included: it is
        isotropic, so each P leaves it as it is."""
        offs, avg = greens._near_cell_averages.__wrapped__(lam, h, nc)
        M = full_tensors(avg)
        side = 2 * nc + 1
        key = np.array([side * side, side, 1])
        assert np.array_equal((offs + nc) @ key, np.arange(len(offs)))
        for p, s in SIGNED_PERMUTATIONS:
            moved = offs[:, p] * s  # (P o)_i = s_i o_{p(i)}
            turned = s[:, None] * s * M[:, p[:, None], p]  # P M P^T
            assert np.array_equal(M[(moved + nc) @ key], turned)

    def test_work_is_the_wedge_and_one_octant(self, monkeypatch):
        """One uncached table evaluates G on 12^3 Gauss points per wedge cell
        (0 <= o_x <= o_y <= o_z), not on the whole block; the isotropic
        singular cell needs no point values of G."""
        points = []
        coeffs = greens._green_coeffs
        monkeypatch.setattr(greens, "_green_coeffs",
                            lambda lam, r: points.append(np.size(r)) or coeffs(lam, r))
        nc = 3
        greens._near_cell_averages.__wrapped__(2.0, 0.52, nc)
        wedge = sum(1 for o in itertools.product(range(nc + 1), repeat=3) if o[0] <= o[1] <= o[2])
        assert wedge == 20
        assert sum(points) == wedge * 12 ** 3
        assert sum(points) < (2 * nc + 1) ** 3 * 12 ** 3


class TestFreeConvolver:
    def test_matches_direct_summation(self):
        """FFT convolution equals direct Green summation at exterior probes."""
        probes = [(0, 0, 0), (23, 23, 23), (0, 12, 23), (3, 1, 2), (20, 2, 11),
                  (1, 22, 3), (12, 0, 1), (23, 11, 0), (2, 3, 22), (22, 21, 1)]
        assert convolution_vs_direct(2.0, np.random.default_rng(9), probes) < 1e-2

    def test_far_field_is_exact_green_column(self):
        """A unit current in one cell off the grid centre reproduces
        h^3 G(x, y) e_j at every node outside the 7^3 block of corrected
        cells, for each j: every stored entry of G in both orientations."""
        grid = Grid3.cube(1.0, 12)
        conv = FreeConvolver(2.0, grid)
        src = (3, 5, 8)
        nodes = grid.nodes()
        y = nodes[(slice(None),) + src]
        idx = np.indices(grid.dims)
        far = np.max(np.abs(idx - np.reshape(src, (3, 1, 1, 1))), axis=0) > 3
        for j in range(3):
            f = np.zeros((3,) + grid.dims)
            f[(j,) + src] = 1.0
            got = conv.apply_array(f)[:, far].T
            want = grid.cell_volume * np.array([dyadic_green(2.0, x, y)[:, j]
                                                for x in nodes[:, far].T])
            gap = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("lo, dims", [((3, 2, 4), (2, 6, 3)), ((5, 5, 5), (1, 1, 1)),
                                          ((0, 0, 0), (12, 12, 12))],
                             ids=["thin", "one-cell", "whole-grid"])
    def test_sub_box_is_the_restricted_operator(self, lo, dims):
        """A convolver built on a box of the grid's cells, batched over a
        leading axis, is the grid's operator restricted to the box, near-cell
        corrections included on boxes thinner than the correction block."""
        grid = Grid3.cube(1.0, 12)
        box = (slice(None),) + tuple(slice(a, a + d) for a, d in zip(lo, dims))
        origin = tuple(o + a * grid.spacing for o, a in zip(grid.origin, lo))
        sub = FreeConvolver(2.0, Grid3(origin, grid.spacing, dims))
        rng = np.random.default_rng(6)
        f = rng.standard_normal((2, 3) + dims) + 1j * rng.standard_normal((2, 3) + dims)
        full = FreeConvolver(2.0, grid)
        got = sub.apply_array(f)
        for fb, gb in zip(f, got):
            embedded = np.zeros((3,) + grid.dims, dtype=complex)
            embedded[box] = fb
            assert rel_err(gb, full.apply_array(embedded)[box]) <= 1e-13

    def test_linearity(self):
        grid = Grid3.cube(0.8, 16)
        rng = np.random.default_rng(2)
        conv = FreeConvolver(1.5, grid)
        a = rng.standard_normal((3,) + grid.dims) + 0j
        b = rng.standard_normal((3,) + grid.dims) + 0j
        lhs = conv.apply_array(2.0 * a - 1j * b)
        rhs = 2.0 * conv.apply_array(a) - 1j * conv.apply_array(b)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_wrapper_consistency(self):
        """The array action and the resolvent scaling are one operator; a
        real input takes the same complex path as its cast."""
        grid = Grid3.cube(0.8, 12)
        rng = np.random.default_rng(4)
        real = rng.standard_normal((3,) + grid.dims)
        conv = FreeConvolver(1.5, grid)
        arr = conv.apply_array(real + 0j)
        assert np.array_equal(conv.apply_array(real), arr)
        assert np.array_equal(conv.apply_resolvent_array(real), arr / (1j * 1.5))


class TestDipole:
    def test_field_is_green_column(self):
        k, src, p = 2.0, np.array([0.1, 0.0, -0.1]), np.array([0.0, 1.0, 0.5])
        pts = np.array([[0.8, 0.3, 0.2]])
        E, H = electric_dipole_field(k, src, p, pts)
        assert np.allclose(E[0], dyadic_green(k, pts[0], src) @ p)
        # H = curl E / (ik) implies div-free consistency: H orthogonal to
        # radial direction in the far field is not exact nearby, so just check
        # the curl relation by finite differences
        h = 1e-5

        def E_at(x):
            return electric_dipole_field(k, src, p, np.array([x]))[0][0]
        x0 = pts[0]
        dE = []
        for ax in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[ax] += h
            xm[ax] -= h
            dE.append((E_at(xp) - E_at(xm)) / (2 * h))
        curl = np.array(
            [dE[1][2] - dE[2][1], dE[2][0] - dE[0][2], dE[0][1] - dE[1][0]]
        )
        assert rel_err(H[0], curl / (1j * k)) < 1e-6


class TestResolventDecay:
    def test_lambda_scaled_norm_bounded(self):
        grid = Grid3.cube(1.0, 24)
        x, y, z = grid.nodes()
        prof = np.exp(-((x ** 2 + y ** 2 + z ** 2)) / (2 * 0.3 ** 2))
        f = np.stack([prof, 0.5 * prof, np.zeros_like(prof)]) + 0j
        pairs = resolvent_decay_probe([4.0, 8.0, 16.0], f, grid)
        scaled = [lam * ratio for lam, ratio in pairs]
        assert max(scaled) / min(scaled) < 3.0

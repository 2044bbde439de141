"""Scalar Helmholtz kernel, dyadic Maxwell Green tensor, and the padded
Fourier-multiplier free resolvent restricted to the grid box.

The convolution computes G * f with the full dyadic kernel

    G = i*lam*g*I + (i/lam) * hess(g)

sampled in closed form on the zero-padded displacement grid, so the Fourier
route is a direct summation to rounding (no spectral differentiation, hence
no aliasing of the hypersingular part). Point sampling of the strongly
singular Hessian is not a convergent quadrature near the origin, so cells
within a small correction radius carry exact cell averages instead (product
integration); the singular cell's average includes the distributional
-delta/3 of the identity hess(g) = PV part - (1/3) delta I.

Those averages are integrated on the wedge 0 <= o_x <= o_y <= o_z of cell
offsets only. G(P d) = P G(d) P^T for every signed permutation P, and the
Gauss-Legendre nodes are antisymmetric and the weights symmetric bit for
bit, so the rule on cell P o is P applied to the rule on cell o and
avg(P o) = P avg(o) P^T. The singular cell is fixed by all 48 signed
permutations, so its average commutes with each of them and is a multiple of
I: the traceless part of the Hessian integrates to 0 over it. Its one scalar
is integrated on one octant of a (u, phi) direction grid that is invariant
under u -> -u, phi -> -phi and phi -> pi - phi.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from .geometry import Grid3

__all__ = ["helmholtz_g", "dyadic_green", "FreeConvolver", "padded_apply", "SingularityError"]


def padded_apply(f: np.ndarray, padded: tuple, symbol, dims: tuple, box=None) -> np.ndarray:
    """Aperiodic Fourier-multiplier action on a grid of `dims` cells: values f
    (...,) + box shape, zero off the index slices `box` (the whole grid by
    default), are zero-padded to `padded`, transformed over the last three
    axes, passed through `symbol` (transforms in and out, same shape),
    transformed back and read on the grid, (...,) + dims.

    Each transform is one cached DFT matrix per axis, forward from the box
    (`_box_dft`) and inverse onto the grid (`_grid_idft`), so padding is
    never transformed: the last axis as one product over all lines, the
    others batched over the leading axes. This equals zero-padded `fftn`,
    the symbol, `ifftn` and a crop to rounding; a real f gives the bits of
    its complex cast."""
    box = box or tuple(slice(0, n) for n in dims)
    E = [_box_dft(p, b.start, b.stop) for p, b in zip(padded, box)]
    D = [_grid_idft(p, 0, n) for p, n in zip(padded, dims)]
    lead, p = f.shape[:-3], padded
    g = np.matmul(E[1], (f.reshape(-1, f.shape[-1]) @ E[2].T).reshape(f.shape[:-1] + p[2:]))
    g = symbol((E[0] @ g.reshape(lead + (g.shape[-3], -1))).reshape(lead + p))
    g = np.matmul(D[1], (D[0] @ g.reshape(lead + (p[0], -1))).reshape(lead + dims[:1] + p[1:]))
    return (g.reshape(-1, p[2]) @ D[2].T).reshape(lead + dims)


@lru_cache(maxsize=64)
def _box_dft(p: int, lo: int, hi: int) -> np.ndarray:
    """(p, hi - lo) p-point DFT matrix of values at indices lo .. hi - 1 of an axis; cached."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(p), np.arange(lo, hi)) % p) / p)


@lru_cache(maxsize=64)
def _grid_idft(p: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, p) matrix of the p-point inverse DFT onto indices lo .. hi - 1; cached."""
    return np.conj(_box_dft(p, lo, hi)).T / p


def symmetric_symbol(S: np.ndarray):
    """Multiplier callback for `padded_apply` of the symmetric 3x3 symbol
    stored as its six distinct entries S (6, ...) in `_UPPER` order; the
    transforms (..., 3, p0, p1, p2) may carry leading batch axes."""
    def symbol(f_hat):
        out = np.empty_like(f_hat)
        f = [f_hat[..., j, :, :, :] for j in range(3)]
        for i, (e0, e1, e2) in enumerate(_ENTRY):  # summed in place, in this order
            o = np.multiply(S[e0], f[0], out=out[..., i, :, :, :])
            o += S[e1] * f[1]
            o += S[e2] * f[2]
        return out

    return symbol


class SingularityError(ValueError):
    """Kernel evaluated at a singular point (r = 0 or x = y)."""


def helmholtz_g(lam: float, r):
    """Outgoing fundamental solution e^{i*lam*r} / (4*pi*r)."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise SingularityError("helmholtz_g requires r > 0")
    return np.exp(1j * lam * r) / (4.0 * np.pi * r)


def dyadic_green(lam: float, x, y) -> np.ndarray:
    """Maxwell Green tensor i*lam*g*I + (i/lam) * hess(g), evaluated in closed form.

    The Hessian of g(r) is f''(r) rhat rhat^T + (f'(r)/r)(I - rhat rhat^T) with
    the radial derivatives expanded analytically.
    """
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    r = np.linalg.norm(d)
    if r == 0:
        raise SingularityError("dyadic_green requires x != y")
    rhat = d / r
    g = np.exp(1j * lam * r) / (4.0 * np.pi * r)
    a = 1j * lam - 1.0 / r
    gp = g * a                      # g'
    gpp = g * (a * a + 1.0 / r ** 2)  # g''
    P = np.outer(rhat, rhat)
    hess = gpp * P + (gp / r) * (np.eye(3) - P)
    return 1j * lam * g * np.eye(3) + (1j / lam) * hess


_CORRECTION_CELLS = 3
# Storage order of the six distinct entries (i, j), i <= j, of the symmetric
# G, and the storage index of entry (i, j) in either order.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ENTRY = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _green_coeffs(lam: float, r):
    """Coefficients (a, b) of G(d) = a I + b d d^T at distance r = |d| > 0.

    With g' = g (i lam - 1/r) and g'' = g ((i lam - 1/r)^2 + 1/r^2), the
    Hessian is hess(g) = (g'/r) I + (g'' - g'/r) d d^T / r^2. The convolver
    and the trace map take G from here only; `dyadic_green` writes it out
    separately, as the reference both are tested against.
    """
    g = np.exp(1j * lam * r) / (4.0 * np.pi * r)
    c = 1j * lam - 1.0 / r
    gp_r = g * c / r
    a = 1j * lam * g + (1j / lam) * gp_r
    b = (1j / lam) * (g * (c * c + 1.0 / r ** 2) - gp_r) / r ** 2
    return a, b


@lru_cache(maxsize=8)
def _near_cell_averages(lam: float, h: float, nc: int):
    """Exact cell averages of G over the displacement cells within nc cells
    of the origin: the integer offsets (n, 3) and the averages (6, n) of the
    entries in `_UPPER` order; cached per (lam, h, nc), so both read-only.

    Regular cells use tensor Gauss-Legendre quadrature on the wedge (module
    docstring), each made exactly invariant under the signed permutations
    that fix its offset. The singular cell is isotropic (module docstring):
    integrated in spherical coordinates about the origin, its trace part
    carries (1/3)(Delta g - delta) = -(lam^2 g + delta)/3.
    """
    def cube(x):  # tensor-product nodes of the 1D nodes x, (len(x)^3, 3)
        return np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)

    offs = cube(np.arange(-nc, nc + 1))
    wedge = offs[(offs[:, 0] >= 0) & (offs[:, 0] <= offs[:, 1]) & (offs[:, 1] <= offs[:, 2])]
    x, w = np.polynomial.legendre.leggauss(12)
    pts = wedge[:, None, :] * h + 0.5 * h * cube(x)
    wn = np.prod(cube(w), axis=1) / 8.0  # weights of the average over the cell
    # the singular cell's value here is finite (no Gauss node at the origin)
    # and is replaced below
    a, b = _green_coeffs(lam, np.linalg.norm(pts, axis=2))
    bw, X = b * wn, pts.transpose(0, 2, 1)  # sum_q bw_q d_q d_q^T as real products
    quad = X @ (bw.real[..., None] * pts) + 1j * (X @ (bw.imag[..., None] * pts))
    quad = 0.5 * (quad + quad.transpose(0, 2, 1))  # symmetric bit for bit
    quad[:, [0, 1, 2], [0, 1, 2]] += (a @ wn)[:, None]

    # cell o is P w, w = sorted |o| in the wedge, (P w)_i = s_i w_{k_i}, so
    # avg(o)_ij = s_i s_j avg(w)_{k_i k_j}, read where the exact symmetry of w
    # puts it: equal coordinates share entries (c_i is the first k with
    # w_k = |o_i|), and a zero o_i zeroes the off-diagonal entries of row i
    mag, off = np.abs(offs), ~np.eye(3, dtype=bool)
    c = np.sum(mag[:, None, :] < mag[:, :, None], axis=2)
    same = off & (c[:, :, None] == c[:, None, :])  # off-diagonal within one run
    key = np.array([(nc + 1) ** 2, nc + 1, 1])  # the wedge is sorted by key
    rep = np.searchsorted(wedge @ key, np.sort(mag, axis=1) @ key)
    sgn = np.where(offs < 0, -1.0, 1.0)
    val = quad[rep[:, None, None], c[:, :, None], c[:, None, :] + same]
    val *= sgn[:, :, None] * sgn[:, None, :]
    full = np.where(off & ((offs == 0)[:, :, None] | (offs == 0)[:, None, :]), 0.0, val)

    # singular cell: directions x radial closed form, over the octant u > 0,
    # 0 < phi < pi/2 of the 64 x 128 (u, phi) grid, weights x 8
    u, wu = (v[32:] for v in np.polynomial.legendre.leggauss(64))
    phi = (np.arange(32) + 0.5) * (np.pi / 64)
    su = np.sqrt(1.0 - u[:, None] ** 2)
    rho = (0.5 * h / np.maximum(np.maximum(su * np.cos(phi), su * np.sin(phi)), u[:, None])).ravel()
    wang = np.repeat(wu, 32) * (np.pi / 8)  # sums to 4 pi over the 8 octants

    # int_0^rho r e^{i lam r} dr, closed form
    e = np.exp(1j * lam * rho)
    rad_g = rho * e / (1j * lam) + (e - 1.0) / lam ** 2
    int_g = np.sum(wang * rad_g) / (4.0 * np.pi)
    iso = (-(lam ** 2) * int_g - 1.0) / 3.0
    full[len(offs) // 2] = (1j * lam * int_g + (1j / lam) * iso) * np.eye(3) / h ** 3

    iu, ju = np.array(_UPPER).T
    avg = np.ascontiguousarray(full[:, iu, ju].T)
    offs.flags.writeable = avg.flags.writeable = False
    return offs, avg


class FreeConvolver:
    """Precomputed free-resolvent convolution operator for one (lam, grid) pair.

    The kernel transforms are computed once on the 2x zero-padded grid
    (aperiodic convolution; no wrap-around of the slowly decaying kernel) and
    shared read-only between calls. One (6, ...) array holds the transforms
    of the six distinct entries of the symmetric G, with the h^3 cell weight
    folded in, so an application is the padded transform pair around one
    symmetric 3x3 contraction.
    """

    def __init__(self, lam: float, grid: Grid3):
        if lam <= 0:
            raise ValueError("wavenumber lam must be positive")
        self.lam = float(lam)
        self.grid = grid
        self.padded = tuple(int(2 * v) for v in grid.dims)
        h = grid.spacing

        # circulant displacement coordinates on the padded grid
        d = np.meshgrid(
            *[(((np.arange(p) + p // 2) % p) - p // 2) * h for p in self.padded], indexing="ij"
        )
        r = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        r[0, 0, 0] = h  # the singular cell is overwritten below
        a, b = _green_coeffs(self.lam, r)
        G = np.empty((6,) + self.padded, dtype=np.complex128)
        for e, (i, j) in enumerate(_UPPER):
            np.multiply(b, d[i] * d[j], out=G[e])
            if i == j:
                G[e] += a

        # Product integration (module docstring) within the correction radius.
        # Cells at >= 4h keep exact point values, so a one-cell source
        # reproduces the analytic Green column exactly beyond that radius.
        # Only displacements that occur on the grid are set, so the operator
        # of a sub-box of a grid is that grid's operator restricted to it.
        offs, avg = _near_cell_averages(self.lam, h, _CORRECTION_CELLS)
        occur = np.all(np.abs(offs) < np.asarray(grid.dims), axis=1)
        G[(slice(None),) + tuple((offs[occur] % self.padded).T)] = avg[:, occur]
        G *= grid.cell_volume
        self._green_hat = sfft.fftn(G, axes=(1, 2, 3), overwrite_x=True)

    def apply_array(self, f: np.ndarray) -> np.ndarray:
        """Apply the dyadic convolution G * f to values of shape
        (..., 3, nx, ny, nz)."""
        if not np.all(np.isfinite(f)):
            raise ValueError("non-finite values in resolvent input")
        return padded_apply(f, self.padded, symmetric_symbol(self._green_hat), self.grid.dims)

    def apply_resolvent_array(self, f: np.ndarray) -> np.ndarray:
        """True free resolvent (curl curl - lam^2)^{-1} f = (G * f) / (i lam).

        The Green-tensor convolution satisfies
        (curl curl - lam^2)(G * f) = i lam f, so the inverse operator used by
        the fixed-point solver is the convolution divided by i*lam.
        """
        return self.apply_array(f) / (1j * self.lam)

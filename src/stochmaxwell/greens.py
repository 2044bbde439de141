"""Scalar Helmholtz kernel, dyadic Maxwell Green tensor, and the FFT-based
free resolvent restricted to the grid box.

The convolution computes G * f with the full dyadic kernel

    G = i*lam*g*I + (i/lam) * hess(g)

sampled in closed form on the zero-padded displacement grid, so the FFT
route is bit-for-bit a direct summation (no spectral differentiation, hence
no aliasing of the hypersingular part). Point sampling of the strongly
singular Hessian is not a convergent quadrature near the origin, so cells
within a small correction radius carry exact cell averages instead (product
integration); the singular cell's average includes the distributional
-delta/3 of the identity hess(g) = PV part - (1/3) delta I.
"""
from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .geometry import Grid3, VectorFieldC3

__all__ = [
    "helmholtz_g",
    "dyadic_green",
    "FreeConvolver",
    "padded_fft_apply",
    "SingularityError",
]


def padded_fft_apply(f: np.ndarray, padded: tuple, symbol) -> np.ndarray:
    """Aperiodic Fourier-multiplier action on base-grid values (..., nx, ny, nz).

    The values are zero-padded to `padded`, transformed over the last three
    axes, passed through `symbol` (transforms in, transforms out, same shape),
    transformed back and cropped to the base grid. The complex cast keeps real
    inputs on the complex transform path.

    The transforms go one axis at a time, padding that axis as it is
    transformed and cropping each inverse axis right after its transform, so
    lines that hold only padding are never transformed: a 2x padding of an
    n^3 grid takes 7 n^2 lines each way instead of 12 n^2. The result equals
    the full padded `fftn`/`ifftn` pair to rounding.
    """
    g = np.asarray(f, dtype=np.complex128)
    n = g.shape
    for ax in (-1, -2, -3):
        g = sfft.fft(g, n=padded[ax], axis=ax)
    g = symbol(g)
    for ax in (-3, -2, -1):
        g = sfft.ifft(g, axis=ax, overwrite_x=True)
        crop = [slice(None)] * g.ndim
        crop[ax] = slice(n[ax])
        g = g[tuple(crop)]
    return g


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


def _gauss_cell(q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1), W


def _near_cell_averages(lam: float, h: float, nc: int):
    """Exact cell averages of g and hess(g) for displacement cells within nc.

    Regular cells use tensor Gauss-Legendre quadrature; the singular cell is
    integrated in spherical coordinates about the origin, where the traceless
    part of the Hessian vanishes identically over the inscribed ball (its
    angular mean is zero) and the isotropic part carries (1/3)(Delta g - delta)
    = -(lam^2 g + delta)/3.
    """
    offs = [
        (i, j, k)
        for i in range(-nc, nc + 1)
        for j in range(-nc, nc + 1)
        for k in range(-nc, nc + 1)
    ]
    pts_ref, w_ref = _gauss_cell(12)  # reference cube [-1, 1]^3, sum w = 8
    g_avg = {}
    hess_avg = {}
    eye = np.eye(3)
    for off in offs:
        if off == (0, 0, 0):
            continue
        pts = np.asarray(off, dtype=np.float64) * h + 0.5 * h * pts_ref
        r = np.linalg.norm(pts, axis=1)
        g = np.exp(1j * lam * r) / (4.0 * np.pi * r)
        a = 1j * lam - 1.0 / r
        gp_over_r = g * a / r
        coef = g * (a * a + 1.0 / r ** 2) / r ** 2 - gp_over_r / r ** 2
        wn = w_ref / 8.0  # average over the cell
        g_avg[off] = complex(np.sum(wn * g))
        H = np.einsum(
            "q,qi,qj->ij", wn * coef, pts, pts
        ) + eye * np.sum(wn * gp_over_r)
        hess_avg[off] = H

    # singular cell: directions x radial closed form / quadrature
    nu, nphi = 64, 128
    u, wu = np.polynomial.legendre.leggauss(nu)
    phi = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
    U, P = np.meshgrid(u, phi, indexing="ij")
    su = np.sqrt(1.0 - U ** 2)
    omega = np.stack([su * np.cos(P), su * np.sin(P), U], axis=-1).reshape(-1, 3)
    wang = np.repeat(wu, nphi) * (2.0 * np.pi / nphi)  # sums to 4 pi
    rho = 0.5 * h / np.max(np.abs(omega), axis=1)

    # int_0^rho r e^{i lam r} dr, closed form
    e = np.exp(1j * lam * rho)
    rad_g = rho * e / (1j * lam) + (e - 1.0) / lam ** 2
    int_g = np.sum(wang * rad_g) / (4.0 * np.pi)
    g_avg[(0, 0, 0)] = complex(int_g / h ** 3)

    # traceless part: int_{h/2}^{rho} (g'' - g'/r) r^2 dr per direction
    xg, wg = np.polynomial.legendre.leggauss(24)
    mid = 0.5 * (rho + 0.5 * h)
    half = 0.5 * (rho - 0.5 * h)
    rr = mid[:, None] + half[:, None] * xg[None, :]
    gr = np.exp(1j * lam * rr) / (4.0 * np.pi * rr)
    ar = 1j * lam - 1.0 / rr
    w_tl = gr * (ar * ar + 1.0 / rr ** 2 - ar / rr)
    rad_tl = np.sum(wg[None, :] * w_tl * rr ** 2, axis=1) * half
    T = np.einsum("q,qi,qj->ij", wang * rad_tl, omega, omega) - eye * np.sum(
        wang * rad_tl
    ) / 3.0
    iso = (-(lam ** 2) * int_g - 1.0) / 3.0
    hess_avg[(0, 0, 0)] = (T + iso * eye) / h ** 3
    return g_avg, hess_avg


class FreeConvolver:
    """Precomputed free-resolvent convolution operator for one (lam, grid) pair.

    The kernel transforms are computed once on the 2x zero-padded grid
    (aperiodic convolution; no wrap-around of the slowly decaying kernel) and
    shared read-only between calls. Ten transforms are stored: the scalar g
    and the six independent Hessian components, combined into the three
    diagonal and three off-diagonal entries of G. Singular cells hold the
    closed-form average over the ball of equal cell volume, which restores
    O(h^2) accuracy of the trapezoidal convolution.
    """

    def __init__(self, lam: float, grid: Grid3):
        if lam <= 0:
            raise ValueError("wavenumber lam must be positive")
        self.lam = float(lam)
        self.grid = grid
        n = np.asarray(grid.dims)
        self.padded = tuple(int(2 * v) for v in n)
        h = grid.spacing

        # circulant displacement coordinates on the padded grid
        deltas = []
        for p in self.padded:
            idx = ((np.arange(p) + p // 2) % p) - p // 2
            deltas.append(idx * h)
        dx, dy, dz = np.meshgrid(*deltas, indexing="ij")
        r = np.sqrt(dx * dx + dy * dy + dz * dz)
        mask = r > 0
        rs = r[mask]
        g = np.exp(1j * lam * rs) / (4.0 * np.pi * rs)
        a = 1j * lam - 1.0 / rs
        gp_over_r = g * a / rs
        coef = g * (a * a + 1.0 / rs ** 2) / rs ** 2 - gp_over_r / rs ** 2

        kern = np.empty(self.padded, dtype=np.complex128)
        kern[mask] = g
        kern[~mask] = 0.0

        # hess_ij(g) = g'' rhat_i rhat_j + (g'/r)(delta_ij - rhat_i rhat_j)
        #            = coef * d_i d_j + (g'/r) delta_ij        (d = displacement)
        hess = np.zeros((3, 3) + self.padded, dtype=np.complex128)
        for i, di in enumerate((dx, dy, dz)):
            for j, dj in enumerate((dx, dy, dz)):
                if j < i:
                    continue
                hess[i, j][mask] = coef * di[mask] * dj[mask]
                if i == j:
                    hess[i, j][mask] += gp_over_r

        # Product integration: point sampling of the 1/r^3 traceless part does
        # not converge near the origin, so replace the entries within the
        # correction radius by exact cell averages. The singular cell's value
        # includes the distributional -(1/3) delta I of grad grad^T g. Cells
        # at >= 4h keep exact point values, so a one-cell source reproduces
        # the analytic Green column exactly beyond that radius.
        nc = min(_CORRECTION_CELLS, min(self.padded) // 2 - 1)
        g_avg, hess_avg = _near_cell_averages(self.lam, h, nc)
        offs = range(-nc, nc + 1)
        for oi in offs:
            for oj in offs:
                for ok in offs:
                    idx = (oi % self.padded[0], oj % self.padded[1], ok % self.padded[2])
                    kern[idx] = g_avg[(oi, oj, ok)]
                    hv = hess_avg[(oi, oj, ok)]
                    for i in range(3):
                        for j in range(i, 3):
                            hess[i, j][idx] = hv[i, j]

        self.kernel_hat = sfft.fftn(kern)
        self.hess_hat = {
            (i, j): sfft.fftn(hess[i, j])
            for i in range(3)
            for j in range(i, 3)
        }

    def apply_array(self, f: np.ndarray) -> np.ndarray:
        """Apply the dyadic convolution G * f to values of shape (3, nx, ny, nz)."""
        if not np.all(np.isfinite(f)):
            raise ValueError("non-finite values in resolvent input")
        lam = self.lam

        def symbol(f_hat):
            out = np.empty_like(f_hat)
            for i in range(3):
                out[i] = 1j * lam * self.kernel_hat * f_hat[i]
                for j in range(3):
                    hij = self.hess_hat[(i, j) if i <= j else (j, i)]
                    out[i] += (1j / lam) * hij * f_hat[j]
            return out

        return padded_fft_apply(f, self.padded, symbol) * self.grid.cell_volume

    def apply(self, f: VectorFieldC3) -> VectorFieldC3:
        if f.grid != self.grid:
            raise ValueError("field grid does not match convolver grid")
        return VectorFieldC3(self.grid, self.apply_array(f.values))

    def apply_resolvent_array(self, f: np.ndarray) -> np.ndarray:
        """True free resolvent (curl curl - lam^2)^{-1} f = (G * f) / (i lam).

        The Green-tensor convolution satisfies
        (curl curl - lam^2)(G * f) = i lam f, so the inverse operator used by
        the fixed-point solver is the convolution divided by i*lam.
        """
        return self.apply_array(f) / (1j * self.lam)


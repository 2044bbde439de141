"""Complex-geometric-optics (CGO) test solutions of the homogeneous Maxwell
system and the product expansion used to isolate Fourier modes of the source
strength.

A CGO solution has the form U = e^{i zeta . x}(eta + W) with complex zeta
satisfying the bilinear constraint zeta . zeta = k^2, so that
U0 = eta e^{i zeta . x} solves curl curl U0 = k^2 U0 exactly. In an
inhomogeneous medium the correction W is solved from the conjugated
equation e^{-i zeta x}(curl curl - k^2)(e^{i zeta x} W) = -k^2 m (eta + W),
whose constant-coefficient part inverts in closed form in Fourier space
(`resolvent.ConjugatedResolvent`):

    A(q)^{-1} = (I - q q^T / k^2) / (s^2 + 2 s . zeta),   q = s + zeta,

the scalar denominator being the Faddeev symbol. Unlike the outgoing kernel,
this inverse decays like 1/|Im zeta|, which is what gives the remainder
estimate its 1/t behaviour. Phase constraints (zeta . zeta = k^2) use the
bilinear dot product throughout.

The correction enters its equation only through m W, so it is solved on
the bounding box of supp(m), a block of columns at a time, with the same
discrete operator restricted to the box, by Neumann iteration with a
hand-off to restarted GMRES (`forward.solve_fixed_point`); one full-grid
apply per column gives W. A `CgoSolution` holds one column's W.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    ConfigurationError,
    Grid3,
    MediumSpec,
    _trilinear_stencil,
    _trilinear_sum,
    evaluate_on_grid,
)
from .forward import _bounding_box, curl_at, solve_fixed_point, stencil_cells
from .greens import padded_fft_apply, symmetric_symbol
from .resolvent import ConjugatedResolvent

__all__ = [
    "CgoSolution",
    "build_frame",
    "build_zeta_eta",
    "box_radius",
    "solve_cgo_remainder",
    "cgo_product_remainder",
    "cgo_on_sphere",
    "CgoRemainderSolver",
]

# e^{|Im zeta| R'} appears squared in products; cap the exponent well below
# double-precision overflow (log of max double is about 709)
OVERFLOW_GUARD = 60.0


def build_frame(xi) -> np.ndarray:
    """Right-handed orthonormal frame (xi_hat, d1, d2) adapted to xi.

    d1 is the normalized cross product of xi_hat with the coordinate axis
    least aligned with it (smallest absolute component; ties break to the
    smallest index), and d2 = xi_hat x d1. The convention xi = 0 maps to the
    frame (e3, e1, e2). Stacked xi of shape (..., 3) give frames of shape
    (..., 3, 3).

    Every step is odd in xi or even in it, so build_frame(-xi) is
    (-xi_hat, -d1, d2) bit for bit.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim == 0 or xi.shape[-1] != 3:
        raise ValueError("xi must be a 3-vector")
    scale = np.max(np.abs(xi), axis=-1, keepdims=True)
    zero = scale[..., 0] == 0.0
    # scale by the power of two at the largest component so the squared norm
    # of a tiny xi cannot underflow; a power-of-two scale is exact, so xi_hat
    # keeps its bits wherever the unscaled norm did not underflow
    xs = np.ldexp(xi, -np.frexp(scale)[1])
    xs[zero] = (0.0, 0.0, 1.0)
    xh = xs / np.linalg.norm(xs, axis=-1, keepdims=True)
    d1 = np.cross(xh, np.eye(3)[np.argmin(np.abs(xh), axis=-1)])
    d1 /= np.linalg.norm(d1, axis=-1, keepdims=True)
    frame = np.stack([xh, d1, np.cross(xh, d1)], axis=-2)
    frame[zero] = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    return frame


def build_zeta_eta(xi, t: float, k: float, azimuth=0.0, box_radius: float | None = None):
    """Conjugate CGO pairs of phase and polarization vectors for stacked
    frequencies xi and growth parameter t.

    In the adapted frame (xi_hat, d1, d2) of each xi:

        zeta_1 = (-|xi|/2,  i b,  t),    eta_1 = (1, 0,  |xi|/2t)
        zeta_2 = (-|xi|/2, -i b, -t),    eta_2 = (1, 0, -|xi|/2t)

    with b = sqrt(t^2 - k^2 + |xi|^2/4), so that zeta_j . zeta_j = k^2,
    zeta_j . eta_j = 0 and zeta_1 + zeta_2 = -xi. xi (..., 3) and azimuth
    (...) broadcast to a shape S. Returns zeta and eta of shape S + (2, 3),
    member 1 then member 2 on the second-to-last axis, and the leading
    product coefficients eta_1 . eta_2 = 1 - |xi|^2 / 4t^2 of shape S.

    Requires t^2 >= k^2 - |xi|^2/4 (real b) and t > 0. When box_radius is
    given, enforces the overflow guard t*r + |xi|*r <= 60. `azimuth` rotates
    the transverse frame (d1, d2) about xi_hat; every azimuth yields an
    admissible pair with the same product coefficient, which is what makes
    frame averaging an unbiased variance reducer for the correlation
    estimator. Rotating by pi swaps the two members, so distinct frames live
    in [0, pi). At azimuth 0 the pairs of xi and -xi mirror each other bit
    for bit: zeta_1(-xi) = -conj(zeta_2(xi)) and zeta_2(-xi) =
    -conj(zeta_1(xi)).
    """
    xi = np.asarray(xi, dtype=np.float64)
    t = float(t)
    if t <= 0:
        raise ConfigurationError("CGO parameter t must be positive")
    xi_norm = np.linalg.norm(xi, axis=-1)
    b2 = t * t - k * k + xi_norm ** 2 / 4.0
    if np.any(b2 < 0):
        raise ConfigurationError(
            f"t={t} too small for k={k}, |xi|={np.min(xi_norm)}: need t^2 >= k^2 - |xi|^2/4"
        )
    reach = (t + np.max(xi_norm)) * box_radius if box_radius is not None else 0.0
    if reach > OVERFLOW_GUARD:
        raise ConfigurationError(
            f"(t + |xi|) * r = {reach:.1f} exceeds the "
            f"overflow guard {OVERFLOW_GUARD}; reduce t or the box radius"
        )
    frame = build_frame(xi)
    az = np.asarray(azimuth, dtype=np.float64)[..., None]
    ca, sa = np.cos(az), np.sin(az)
    xh = frame[..., 0, :]
    d1 = ca * frame[..., 1, :] + sa * frame[..., 2, :]
    d2 = -sa * frame[..., 1, :] + ca * frame[..., 2, :]
    r = xi_norm[..., None]
    b = np.sqrt(b2)[..., None]
    zeta = np.stack([-0.5 * r * xh + 1j * b * d1 + t * d2,
                     -0.5 * r * xh - 1j * b * d1 - t * d2], axis=-2)
    eta = np.stack([xh + (r / (2.0 * t)) * d2, xh - (r / (2.0 * t)) * d2], axis=-2)
    leading = np.broadcast_to(1.0 - xi_norm ** 2 / (4.0 * t ** 2), zeta.shape[:-2])
    return zeta, eta.astype(np.complex128), leading


def box_radius(grid: Grid3) -> float:
    """Distance from the origin to the farthest grid-box corner, the radius the
    overflow guard of `build_zeta_eta` is checked at."""
    return float(np.sqrt(3.0) * max(abs(ax[0]) for ax in grid.axes()))


@dataclass(frozen=True)
class CgoSolution:
    """A CGO solution U = e^{i zeta x}(eta + W) on a grid: the correction W,
    shape (3, nx, ny, nz), and the relative fixed-point residual of its
    solve. W = 0 and residual 0 for m = 0."""

    zeta: np.ndarray
    eta: np.ndarray
    grid: Grid3
    W: np.ndarray
    residual: float

    def amplitude(self) -> np.ndarray:
        """eta + W on the grid, shape (3, nx, ny, nz)."""
        return self.eta[:, None, None, None] + self.W


def _orbit(zeta: np.ndarray, dims: tuple):
    """Canonical forms c of stacked zeta (B, 3) under conjugation and signed
    permutations P of equal-length axes of `dims`, with P and conj: c = P
    zeta, conjugated when conj. Components are sign-normalised (real part,
    else imaginary part, positive) and sorted within each group of equal
    lengths; the smaller form of zeta and conj zeta wins (zeta on a tie), on
    values rounded to 9 digits of max|zeta|, so rounding cannot split orbits."""
    rows, scale = np.arange(len(zeta))[:, None], np.abs(zeta).max(axis=1)[:, None, None]
    group = np.broadcast_to([dims.index(n) for n in dims], zeta.shape)
    cands = []
    for z in (zeta, np.conj(zeta)):
        key = np.round(np.stack([z.real, z.imag], axis=1) / scale, 9)
        sign = np.where((key[:, 0] < 0) | ((key[:, 0] == 0) & (key[:, 1] < 0)), -1.0, 1.0)
        key *= sign[:, None]
        order = np.lexsort((key[:, 1], key[:, 0], group), axis=-1)
        flat = key[rows[:, None], :, order[:, None]].reshape(-1, 6).tolist()  # sorted (re, im)
        cands.append((flat, order, sign[rows, order], z))
    (k0, o0, s0, z0), (k1, o1, s1, z1) = cands
    conj = np.array([b < a for a, b in zip(k0, k1)])[:, None]  # lexicographic, as lists
    order, sign = np.where(conj, o1, o0), np.where(conj, s1, s0)
    P = np.zeros((len(zeta), 3, 3))
    P[rows, np.arange(3), order] = sign
    return sign * np.where(conj, z1, z0)[rows, order], P, conj[:, 0]


class CgoRemainderSolver:
    """CGO remainder solves for one (k, medium, grid), a block of columns at a
    time. The correction W solves W = A^{-1}(-k^2 m (eta + W)). The block is
    iterated on the bounding box B of supp(m), with A^{-1} restricted to B
    (`ConjugatedResolvent.box_symbol`), by `forward.solve_fixed_point`; one
    full-grid `apply`
    per column of -k^2 m (eta + W_B) gives W. The first zeta of each
    symmetry orbit (`_orbit`) builds its resolvent directly, and its
    near-bin data and box symbol are kept for the solver's lifetime; every
    later zeta whose canonical form agrees to 1e-12 relative borrows them.
    On a cubic grid the 390 columns of a 389-node xi lattice fall into about
    30 orbits.
    """

    def __init__(self, k: float, medium: MediumSpec, grid: Grid3,
                 tol: float = 1e-10, max_iter: int = 60):
        self.k = float(k)
        self.grid = grid
        self.tol = tol
        self.max_iter = max_iter
        m_grid = evaluate_on_grid(medium, grid)
        self.homogeneous = not np.any(m_grid)
        if not self.homogeneous:  # m W vanishes off supp(m): iterate on its bounding box
            self._box = _bounding_box(m_grid)
            self._km = self.k ** 2 * m_grid[None][(slice(None),) + self._box]
        self._canon = np.empty((0, 3), dtype=np.complex128)  # one row per orbit
        self._lenders = []  # per orbit: (near data, box symbol, P, conj) of its direct build

    def _resolvents(self, zeta: np.ndarray) -> list:
        """Resolvents of stacked zeta (B, 3), each lent its orbit's data if any."""
        out = []
        for z, canon, P, cj in zip(zeta, *_orbit(zeta, self.grid.dims)):
            gap = np.abs(self._canon - canon).max(axis=1) / np.abs(canon).max()
            hit = np.flatnonzero(gap <= 1e-12)
            if hit.size:  # canon = P zeta = P0 zeta0 (conjugations aside): zeta = P^T P0 zeta0
                near, box, P0, conj0 = self._lenders[hit[0]]
                out.append(ConjugatedResolvent(z, self.k, self.grid,
                                               (near, box, P.T @ P0, cj ^ conj0)))
                continue
            out.append(ConjugatedResolvent(z, self.k, self.grid))
            box = None if self.homogeneous else out[-1].box_symbol(self._km.shape[1:])
            self._canon = np.vstack([self._canon, canon])
            self._lenders.append((out[-1].near, box, P, cj))
        return out

    def solve(self, zeta: np.ndarray, eta: np.ndarray):
        """Corrections W (B, 3, nx, ny, nz) of the CGO solutions with stacked
        phases zeta and polarizations eta (B, 3), and the relative residual
        of each column's box system (0 for m = 0, where W = 0). Raises
        SolverError, naming the column, when a residual misses tol."""
        W = np.zeros((len(zeta), 3) + self.grid.dims, dtype=np.complex128)
        if self.homogeneous:
            return W, np.zeros(len(zeta))
        km, resolvents = self._km, self._resolvents(zeta)
        padded = tuple(2 * s for s in km.shape[1:])
        S = np.stack([r.box_symbol(km.shape[1:]) for r in resolvents], axis=1)  # (6, B, ...)
        src = -km * eta[:, :, None, None, None]
        b = padded_fft_apply(src, padded, symmetric_symbol(S))
        WB, _, res = solve_fixed_point(
            lambda x, sel: x + padded_fft_apply(km * x, padded, symmetric_symbol(S[:, sel])),
            b, self.tol, self.max_iter, "CGO remainder solve")
        del S, b  # not held through the full-grid applies
        for c, resolvent in enumerate(resolvents):  # one column at a time on the full grid
            W[c] = resolvent.apply(src[c] - km * WB[c], self._box)  # -k^2 m (eta + W_B), then W
        return W, res


def solve_cgo_remainder(
    xi,
    t: float,
    k: float,
    which: int,
    medium: MediumSpec,
    grid: Grid3,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> CgoSolution:
    """The CGO solution of member `which` (1 or 2) of the conjugate pair of
    one frequency xi (`build_zeta_eta`, with the overflow guard checked on
    the grid), solved by a `CgoRemainderSolver` of its own.

    For m = 0 the residual is algebraically zero (curl curl of the plane
    phase reproduces k^2 U0 exactly since zeta.zeta = k^2 and zeta.eta = 0);
    otherwise the reported residual is the converged relative fixed-point
    residual of the conjugated equation on the contrast's support box (the
    full-grid residual of W is A^{-1} k^2 m applied to it), which is the
    consistency measure the reconstruction relies on.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if np.shape(xi) != (3,):
        raise ValueError("xi must be a 3-vector")
    zeta, eta, _ = build_zeta_eta(xi, t, k, box_radius=box_radius(grid))
    zeta, eta = zeta[which - 1], eta[which - 1]
    W, res = CgoRemainderSolver(k, medium, grid, tol, max_iter).solve(zeta[None], eta[None])
    return CgoSolution(zeta, eta, grid, W[0], float(res[0]))


def cgo_product_remainder(sol1: CgoSolution, sol2: CgoSolution):
    """Leading coefficient eta1 . eta2 and remainder r (nx, ny, nz) of
    U1 . U2 = e^{-i xi x}(leading + r).

    Expanding the bilinear product of the two amplitudes eta_j + W_j,

        r = eta1 . W2 + eta2 . W1 + W1 . W2,

    collecting every cross term. The solutions must be one conjugate pair
    (zeta1 + zeta2 = -xi real) on one grid.
    """
    if np.any((sol1.zeta + sol2.zeta).imag):
        raise ValueError("solutions are not one conjugate pair (zeta1 + zeta2 is not real)")
    if sol1.grid != sol2.grid:
        raise ValueError("solutions do not share a grid")
    W1, W2 = sol1.W, sol2.W
    r = np.tensordot(sol1.eta, W2, axes=1) + np.tensordot(sol2.eta, W1, axes=1)
    return sol1.eta @ sol2.eta, r + np.sum(W1 * W2, axis=0)


def cgo_on_sphere(zeta, eta, W, grid: Grid3, mesh) -> tuple[np.ndarray, np.ndarray]:
    """(U, curl U) at the mesh nodes of the CGO solutions
    U_c = e^{i zeta_c x}(eta_c + W_c), as their (theta_hat, phi_hat) frame
    components: zeta, eta (C, 3), corrections W (C, 3, nx, ny, nz), or None
    for m = 0; returns (C, N, 2) arrays.

    The phase is exact at the nodes: curl(e^{i zeta x} A) =
    e^{i zeta x}(i zeta x A + curl A). For the plane-wave part A = eta, so its
    components are the phase times eta . e_t and (i zeta x eta) . e_t, one
    (2C, 3) x (3, 2N) product with the frame vectors e_t. The corrections
    and their curls (by grid stencils, all columns at once) are interpolated
    trilinearly (`_corner_samples`), then multiplied by the same nodal
    phase; the grid samples never carry it.
    """
    C, N = len(zeta), mesh.n_nodes
    frame = mesh.frame.transpose(1, 0, 2).reshape(3, 2 * N)  # column (n, t): e_t at node n
    amps = np.concatenate([eta, np.cross(1j * zeta, eta)]) @ frame
    phase = np.exp(1j * sum(zeta[:, i, None] * mesh.nodes[:, i] for i in range(3)))
    U, curlU = amps.reshape(2, C, N, 2) * phase[..., None]
    if W is not None:
        Wn, cWn = _corner_samples(W, grid, mesh.nodes).reshape(N, C, 2, 3).transpose(2, 1, 3, 0)
        cWn += np.cross(1j * zeta[:, :, None], Wn, axis=1)  # i zeta x W + curl W
        vals = mesh.to_frame(np.stack([Wn, cWn]).swapaxes(2, 3)) * phase[..., None]
        U, curlU = U + vals[0], curlU + vals[1]
    return U, curlU


def _corner_samples(W: np.ndarray, grid: Grid3, points: np.ndarray) -> np.ndarray:
    """W (C, 3) + grid.dims and its stencil curl (`curl_grid`), interpolated
    trilinearly at points (N, 3): (N, C, 6), W first. Both are formed only at
    the corner cells the interpolation reads, bit for bit as on the whole
    grid."""
    shifted, used, corner, weights = _corner_stencil(grid, np.asarray(points, np.float64).tobytes())
    at = np.concatenate([W.reshape(W.shape[:-3] + (-1,))[..., used],
                         curl_at(W, grid.spacing, shifted)], axis=-2)
    return _trilinear_sum(np.moveaxis(at, -1, 0), corner, weights)


@lru_cache(maxsize=2)
def _corner_stencil(grid: Grid3, points: bytes):
    """Trilinear stencil of points (N, 3), as float64 bytes: `stencil_cells` of
    its cells, the cells, each corner's index among them and the weights
    (8, N); cached."""
    cells, weights = _trilinear_stencil(grid, np.frombuffer(points).reshape(-1, 3))
    used, corner = np.unique(cells, return_inverse=True)
    return stencil_cells(grid.dims, used), used, corner.reshape(cells.shape), weights

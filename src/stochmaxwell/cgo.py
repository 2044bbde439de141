"""Complex-geometric-optics (CGO) test solutions of the homogeneous Maxwell
system and the product expansion used to isolate Fourier modes of the source
strength.

A CGO solution has the form U = e^{i zeta . x}(eta + W) with complex zeta
satisfying the bilinear constraint zeta . zeta = k^2, so that
U0 = eta e^{i zeta . x} solves curl curl U0 = k^2 U0 exactly. In an
inhomogeneous medium the correction W is solved from the conjugated
equation e^{-i zeta x}(curl curl - k^2)(e^{i zeta x} W) = -k^2 m (eta + W),
whose constant-coefficient part inverts in closed form in Fourier space:

    A(q)^{-1} = (I - q q^T / k^2) / (s^2 + 2 s . zeta),   q = s + zeta,

the scalar denominator being the Faddeev symbol. Unlike the outgoing kernel,
this inverse decays like 1/|Im zeta|, which is what gives the remainder
estimate its 1/t behaviour. Phase constraints (zeta . zeta = k^2) use the
bilinear dot product throughout.

The correction enters its equation only through m W, so it is solved on
the bounding box of supp(m), with the same discrete operator restricted to
the box (`greens.box_multiplier`), by Neumann iteration with a hand-off to
restarted GMRES (`forward.solve_fixed_point`); one full-grid apply gives W.
Every solve returns a `CgoSolution` holding W; the split W = f zeta + V of
the remainder estimate is derived from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .geometry import (
    ConfigurationError,
    Grid3,
    MediumSpec,
    ScalarFieldC,
    VectorFieldC3,
    evaluate_on_grid,
    trilinear_interpolate,
)
from .forward import _bounding_box, curl_grid, solve_fixed_point
from .greens import _UPPER, box_multiplier, padded_fft_apply, symmetric_symbol

__all__ = [
    "CgoSolution",
    "StabilityConstants",
    "build_frame",
    "build_zeta_eta",
    "box_radius",
    "plane_wave_on",
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


def plane_wave_on(zeta: np.ndarray, eta: np.ndarray, points: np.ndarray):
    """(U, curl U) of the exact plane-wave part U = eta e^{i zeta . x} at
    points (N, 3); curl U = i zeta x eta e^{i zeta . x}.

    Stacked pairs zeta, eta of shape (C, 3) give (C, N, 3) arrays. The phase
    is an elementwise sum over the three coordinates, so each column has the
    same bits as its own single-pair call.
    """
    arg = sum(zeta[..., i, None] * points[:, i] for i in range(3))
    phase = np.exp(1j * arg)[..., None]
    return phase * eta[..., None, :], phase * np.cross(1j * zeta, eta)[..., None, :]


@dataclass(frozen=True)
class StabilityConstants:
    """Frozen constants of the stability theory (calibrated, not derived)."""

    M1: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if min(self.M1, self.s) <= 0:
            raise ConfigurationError("stability constants must be positive")


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

    @property
    def f(self) -> ScalarFieldC:
        """f of the split W = f zeta + V by the pointwise minimal-norm
        (Hermitian) projection f = W . conj(zeta)/|zeta|^2, V = W - f zeta,
        which keeps both parts within the remainder estimate; the bilinear
        projection does not, because the non-decaying part of W is parallel
        to zeta and |zeta| grows with t."""
        zh = np.conj(self.zeta) / np.sum(np.abs(self.zeta) ** 2)
        return ScalarFieldC(self.grid, np.tensordot(zh, self.W, axes=1))

    @property
    def V(self) -> VectorFieldC3:
        """V = W - f zeta of the split (see `f`)."""
        fz = self.f.values[None] * self.zeta[:, None, None, None]
        return VectorFieldC3(self.grid, self.W - fz)

    def amplitude(self) -> np.ndarray:
        """eta + W on the grid, shape (3, nx, ny, nz)."""
        return self.eta[:, None, None, None] + self.W


class ConjugatedResolvent:
    """Fourier-multiplier inverse of e^{-i zeta x}(curl curl - k^2) e^{i zeta x}.

    Bins within one spectral cell of the characteristic set s^2 + 2 s.zeta = 0
    carry the cell average of the reciprocal symbol (the set has codimension
    two, so the average is finite); this tames the otherwise arbitrarily large
    near-resonant multipliers of the coarse s-lattice.

    The cell average is the midpoint rule on a _SUBSAMPLE^3 grid of offsets o
    about the bin centre s0. With c = s0 + zeta the symbol there is
    d0 + X(o_x) + Y(o_y) + Z(o_z), each term 2 o_i c_i + o_i^2, so the
    samples are an outer sum; the offsets are symmetric about 0, so each
    antipodal pair in x folds into one division,
    1/(B + L) + 1/(B - L) = 2B / (B^2 - L^2) with L = 2 o_x c_x. Bins go in
    chunks of _CHUNK to keep the tensor in cache. The result differs from a
    pointwise mean only by rounding (about 1e-10 relative at worst, from
    the s^2 + 2 s.zeta cancellation near the characteristic set).

    Lending: a signed axis permutation P keeps (P c).(P c) = c.c and maps the
    offset grid onto itself, so the cell averages obey
    A_{P zeta}(P s) = A_zeta(s), and A_{conj zeta}(s) = conj A_zeta(s).
    `lend = (near, P, conj)`, with `near` the (flat bin indices, cell
    averages) of a resolvent for zeta' on this grid and zeta = P zeta'
    (conjugated when `conj`), lends those averages by index permutation,
    reflection (i -> -i mod p) and conjugation. P may exchange only axes of
    equal padded length, which share a lattice, and -s is off the lattice
    on the Nyquist plane (index p/2) of a reflected axis: bins lent from
    there, and near bins the lender lacks, are averaged directly.

    The projection I - q q^T/k^2 of the inverse is folded in at build time:
    the symmetric multiplier inv (I - q q^T/k^2) is stored as its six entries.
    """

    _SUBSAMPLE = 12
    _CHUNK = 16

    def __init__(self, zeta: np.ndarray, k: float, grid: Grid3, lend=None):
        self.zeta = np.asarray(zeta, dtype=np.complex128)
        self.k = float(k)
        n = grid.dims
        self.padded = p = tuple(2 * v for v in n)
        h = grid.spacing
        kv = [2.0 * np.pi * sfft.fftfreq(v, d=h) for v in p]
        sx = kv[0][:, None, None]
        sy = kv[1][None, :, None]
        sz = kv[2][None, None, :]
        z = self.zeta
        denom = sx ** 2 + sy ** 2 + sz ** 2 + 2.0 * (sx * z[0] + sy * z[1] + sz * z[2])
        ds = [kv[a][1] - kv[a][0] for a in range(3)]  # spectral cell widths
        grad_scale = 4.0 * (abs(z).max() + k)
        near = np.abs(denom) < grad_scale * max(ds)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(near, 0.0, 1.0 / np.where(near, 1.0, denom))
        todo = near
        if lend is not None:  # a lent near bin of source index j lands at P j
            (l_idx, l_avg), P, conj = lend
            src = np.unravel_index(l_idx, p)
            axis, sign = np.abs(P).argmax(axis=1), P.sum(axis=1).astype(int)
            dst = np.ravel_multi_index([sign[a] * src[axis[a]] % p[a] for a in range(3)], p)
            nyq = np.any([(sign[a] < 0) & (src[axis[a]] == p[a] // 2) for a in range(3)], axis=0)
            ok = ~nyq & near.ravel()[dst]
            inv.ravel()[dst[ok]] = np.conj(l_avg[ok]) if conj else l_avg[ok]
            todo = near.copy()
            todo.ravel()[dst[ok]] = False
        S = self._SUBSAMPLE
        qx, qy, qz = (((np.arange(S) + 0.5) / S - 0.5) * d for d in ds)
        half = qx[S // 2:]  # the offsets are symmetric about 0: fold x onto +half
        idx = np.nonzero(todo)
        c = np.stack([kv[a][idx[a]] for a in range(3)], axis=1) + z
        L2 = (2.0 * half * c[:, :1]) ** 2
        X = denom[idx][:, None] + half ** 2
        Y = 2.0 * qy * c[:, 1:2] + qy ** 2
        Z = 2.0 * qz * c[:, 2:3] + qz ** 2
        YZ = (Y[:, :, None] + Z[:, None, :]).reshape(len(c), S * S)
        avg = np.empty(len(c), dtype=np.complex128)
        for b in range(0, len(c), self._CHUNK):
            e = slice(b, b + self._CHUNK)
            B = X[e, :, None] + YZ[e, None, :]
            D = B * B
            D -= L2[e, :, None]
            B /= D
            avg[e] = B.sum(axis=(1, 2))
        inv[idx] = avg * (2.0 / S ** 3)
        self._inv = inv
        near_idx = np.flatnonzero(near)
        self.near = (near_idx, inv.ravel()[near_idx])
        q = (sx + z[0], sy + z[1], sz + z[2])
        self._mult = np.empty((6,) + p, dtype=np.complex128)
        for e, (i, j) in enumerate(_UPPER):  # inv (delta_ij - q_i q_j / k^2)
            np.multiply(-q[i] * q[j] / self.k ** 2, inv, out=self._mult[e])
            if i == j:
                self._mult[e] += inv

    def apply(self, f: np.ndarray) -> np.ndarray:
        """A^{-1} f for amplitude-level values of shape (3, nx, ny, nz)."""
        return padded_fft_apply(f, self.padded, symmetric_symbol(self._mult))

    def on_box(self, dims: tuple):
        """A^{-1} restricted to a box of `dims` cells anywhere in the grid, as
        a function of values of shape (3,) + dims (`box_multiplier`)."""
        padded = tuple(2 * s for s in dims)
        symbol = symmetric_symbol(box_multiplier(self._mult, dims))
        return lambda f: padded_fft_apply(f, padded, symbol)


def _orbit(zeta: np.ndarray, dims: tuple):
    """Canonical form c of zeta under conjugation and signed permutations P
    of axes of equal length in `dims`, with P and conj: c = P zeta,
    conjugated when conj. Components are sign-normalised (real part, else
    imaginary part, positive) and sorted within each group of equal lengths,
    and the smaller of the results for zeta and conj zeta is taken. The
    decisions compare values rounded to 9 digits of max|zeta|, so orbit
    members that differ only by rounding reach the same form."""
    group = [dims.index(n) for n in dims]
    cands = []
    for conj in (False, True):
        z = np.conj(zeta) if conj else zeta
        key = np.round(np.stack([z.real, z.imag]) / np.abs(zeta).max(), 9)
        sign = np.where((key[0] < 0) | ((key[0] == 0) & (key[1] < 0)), -1.0, 1.0)
        key *= sign
        order = np.lexsort((key[1], key[0], group))
        cands.append((tuple(key[:, order].T.ravel()), conj, order, sign))
    _, conj, order, sign = min(cands, key=lambda c: c[0])
    P = np.zeros((3, 3))
    P[np.arange(3), order] = sign[order]
    return (np.conj(P @ zeta) if conj else P @ zeta), P, conj


class CgoRemainderSolver:
    """CGO remainder solves for one (k, medium, grid).

    With U0 = eta e^{i zeta x} exact for m = 0, the amplitude correction W
    solves the conjugated fixed point W = A^{-1}(-k^2 m (eta + W)). The
    contrast and the bounding box B of its support are found once. Neumann
    iteration with a GMRES hand-off (`forward.solve_fixed_point`) on A^{-1}
    restricted to B (`ConjugatedResolvent.on_box`) gives W_B, and one
    full-grid `apply` of -k^2 m (eta + W_B) gives W. The first zeta of each
    symmetry orbit (`_orbit`) builds its resolvent directly, and the
    near-bin data are kept for the solver's lifetime; every later zeta whose
    canonical form agrees to 1e-12 relative borrows them (see
    `ConjugatedResolvent`). On a cubic grid the 390 columns of a 389-node xi
    lattice (one sample per antipodal pair) fall into about 30 orbits; a
    non-cubic grid shares only reflections and conjugation.
    """

    def __init__(self, k: float, medium: MediumSpec, grid: Grid3,
                 tol: float = 1e-10, max_iter: int = 60):
        self.k = float(k)
        self.grid = grid
        self.tol = tol
        self.max_iter = max_iter
        m_grid = evaluate_on_grid(medium, grid).values.real
        self.homogeneous = not np.any(m_grid)
        if not self.homogeneous:  # m W vanishes off supp(m): iterate on its bounding box
            self._box = (slice(None), *_bounding_box(m_grid))
            self._km = self.k ** 2 * m_grid[None][self._box]
        self._canon = np.empty((0, 3), dtype=np.complex128)  # one row per orbit
        self._lenders = []  # per orbit: (near data, P, conj) of its direct build

    def _resolvent(self, zeta: np.ndarray) -> ConjugatedResolvent:
        canon, P, conj = _orbit(zeta, self.grid.dims)
        gap = np.abs(self._canon - canon).max(axis=1) / np.abs(canon).max()
        hit = np.flatnonzero(gap <= 1e-12)
        if hit.size:
            # canon = P zeta = P0 zeta0 (conjugations aside): zeta = P^T P0 zeta0
            near, P0, conj0 = self._lenders[hit[0]]
            lend = (near, P.T @ P0, conj != conj0)
            return ConjugatedResolvent(zeta, self.k, self.grid, lend=lend)
        res = ConjugatedResolvent(zeta, self.k, self.grid)
        self._canon = np.vstack([self._canon, canon])
        self._lenders.append((res.near, P, conj))
        return res

    def solve(self, zeta: np.ndarray, eta: np.ndarray) -> CgoSolution:
        """The CGO solution with phase zeta and polarization eta: its
        correction W and the relative fixed-point residual of the box
        system; W = 0 and residual 0 for m = 0. Raises SolverError when the
        residual misses the tolerance."""
        if self.homogeneous:
            W = np.zeros((3,) + self.grid.dims, dtype=np.complex128)
            return CgoSolution(zeta, eta, self.grid, W, 0.0)
        resolvent = self._resolvent(zeta)
        km = self._km
        on_box = resolvent.on_box(km.shape[1:])
        src = -km * eta[:, None, None, None]
        b = on_box(src)
        W, _, res = solve_fixed_point(lambda W: W + on_box(km * W), b, self.tol,
                                      self.max_iter, "CGO remainder solve")
        full = np.zeros((3,) + self.grid.dims, dtype=np.complex128)
        full[self._box] = src - km * W  # -k^2 m (eta + W_B)
        return CgoSolution(zeta, eta, self.grid, resolvent.apply(full), float(res))


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
    solver = CgoRemainderSolver(k, medium, grid, tol, max_iter)
    return solver.solve(zeta[which - 1], eta[which - 1])


def cgo_product_remainder(sol1: CgoSolution, sol2: CgoSolution):
    """Leading coefficient eta1 . eta2 and remainder r of
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
    return sol1.eta @ sol2.eta, ScalarFieldC(sol1.grid, r + np.sum(W1 * W2, axis=0))


def cgo_on_sphere(zeta, eta, W, grid: Grid3, mesh) -> tuple[np.ndarray, np.ndarray]:
    """(U, curl U) at the mesh nodes of the CGO solutions
    U_c = e^{i zeta_c x}(eta_c + W_c), as their (theta_hat, phi_hat) frame
    components: zeta, eta (C, 3), corrections W (C, 3, nx, ny, nz), or None
    for m = 0; returns (C, N, 2) arrays.

    The plane-phase part is analytic: curl(eta e^{i zeta x}) =
    i zeta x eta e^{i zeta x}, so its components are the phase times
    eta . e_t and (i zeta x eta) . e_t, one (2C, 3) x (3, 2N) product with
    the frame vectors e_t. The corrections are interpolated trilinearly, their
    curls taken by grid stencils first, all columns at once, and projected.
    """
    C, N = len(zeta), mesh.n_nodes
    frame = mesh.frame.transpose(1, 0, 2).reshape(3, 2 * N)  # column (n, t): e_t at node n
    amps = np.concatenate([eta, np.cross(1j * zeta, eta)]) @ frame
    phase = np.exp(1j * sum(zeta[:, i, None] * mesh.nodes[:, i] for i in range(3)))
    U, curlU = amps.reshape(2, C, N, 2) * phase[..., None]
    if W is not None:
        X = grid.nodes()
        phase = np.exp(1j * sum(zeta[:, i, None, None, None] * X[i] for i in range(3)))
        W = W * phase[:, None]
        both = np.concatenate([W, curl_grid(W, grid.spacing)], axis=1)
        vals = trilinear_interpolate(both, grid, mesh.nodes).reshape(C, 2, 3, N)
        vals = mesh.to_frame(vals.swapaxes(2, 3))  # (C, 2, N, 2): W, then curl W
        U, curlU = U + vals[:, 0], curlU + vals[:, 1]
    return U, curlU

"""The conjugated Faddeev resolvent of the CGO remainder equation: the
Fourier-multiplier inverse of e^{-i zeta x}(curl curl - k^2) e^{i zeta x} on
the padded FFT lattice of a grid (Vainikko, "Fast solvers of the
Lippmann-Schwinger equation", 2000),

    A(q)^{-1} = (I - q q^T / k^2) / (s^2 + 2 s . zeta),   q = s + zeta,

held by its scalar symbol on an odd padded lattice. Near-resonant bins
carry cell averages of the symbol, computed once per symmetry orbit of bins:
lent across the signed axis permutations and conjugation that relate two
zeta. The operator restricted to a box of cells is formed from truncated
DFTs of the symbol's axis moments.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from .forward import SolverError, _bounding_box
from .geometry import Grid3
from .greens import _cropped_ifft

__all__ = ["ConjugatedResolvent"]


def _padded_length(n: int) -> int:
    """Padded length of an axis of n cells: the smallest odd m >= 2n - 1, so
    the apply does not wrap, with `next_fast_len(m) == m`. An odd lattice
    holds the frequency -f of each of its frequencies f, so every signed
    permutation of equal-length axes maps it onto itself."""
    m = 2 * n - 1
    while sfft.next_fast_len(m) != m:
        m += 2
    return m


@lru_cache(maxsize=8)
def _lattice(padded: tuple, h: float):
    """Spectral lattice s of a padded grid (axes broadcast) and |s|^2; cached."""
    s = [2.0 * np.pi * sfft.fftfreq(v, d=h) for v in padded]
    s = (s[0][:, None, None], s[1][None, :, None], s[2][None, None, :])
    return s, s[0] ** 2 + s[1] ** 2 + s[2] ** 2


@lru_cache(maxsize=16)
def _truncated_dft(p: int, s: int) -> np.ndarray:
    """(2s, p) matrix taking a p-point multiplier to the 2s-point symbol of its
    kernel on a box of s cells: the inverse DFT at displacements -(s - 1) ..
    s - 1, embedded circulantly in 2s points, then the forward DFT; cached."""
    d = np.arange(1 - s, s)
    pruned = np.exp(2j * np.pi * (np.outer(d, np.arange(p)) % p) / p) / p
    return np.exp(-2j * np.pi * (np.outer(np.arange(2 * s), d) % (2 * s)) / (2 * s)) @ pruned


_SUBSAMPLE = 12  # midpoint offsets per axis of a near-resonant cell average
_CHUNK = 16  # near bins per pass of `_cell_averages`


def _cell_averages(zeta: np.ndarray, s0: np.ndarray, ds) -> np.ndarray:
    """Cell averages (n,) of 1/(s^2 + 2 s.zeta) over the spectral cells of
    widths ds about the centres s0 (n, 3): the midpoint rule on a
    _SUBSAMPLE^3 grid of offsets o. With c = s0 + zeta the symbol at s0 + o
    is d0 + X(o_x) + Y(o_y) + Z(o_z), each term 2 o_i c_i + o_i^2, an outer
    sum. The offsets are symmetric about 0, so the four terms of each pair of
    x and y offsets (+-a, +-b) fold into one quotient: with B = d0 + a^2 +
    b^2 + Z, L = 2 a c_x, M = 2 b c_y and V = B^2 - L^2 - M^2,

        sum 1/(B +- L +- M) = 4 B V / (V^2 - 4 L^2 M^2),

    whose denominator is the product ((B + M)^2 - L^2)((B - M)^2 - L^2) of
    the two x-folded ones. Bins go in chunks of _CHUNK through two
    preallocated buffers, and their per-bin terms eight chunks at a time, so
    the working memory does not grow with the number of bins. The result
    differs from a pointwise mean only by rounding (about 1e-10 relative at
    worst, near the characteristic set).
    Raises SolverError, naming zeta, when an average is not finite: a
    subsample on the characteristic set s^2 + 2 s.zeta = 0."""
    S = _SUBSAMPLE
    qx, qy, qz = (((np.arange(S) + 0.5) / S - 0.5) * d for d in ds)
    a, b = qx[S // 2:], qy[S // 2:]  # fold x and y onto their positive halves
    n, ab = len(s0), len(a) * len(b)
    avg = np.empty(n, dtype=np.complex128)
    # (bin, z, (a, b)): the (a, b) terms run along the contiguous last axis
    B, V = (np.empty((min(_CHUNK, n), S, ab), dtype=np.complex128) for _ in range(2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for top in range(0, n, 8 * _CHUNK):  # per-bin terms of eight chunks at a time
            sx, sy, sz = s0[top : top + 8 * _CHUNK].T
            d0 = (sx ** 2 + sy ** 2 + sz ** 2) + (2.0 * sx * zeta[0] + 2.0 * sy * zeta[1] + 2.0 * sz * zeta[2])
            c = s0[top : top + 8 * _CHUNK] + zeta
            L2, M2 = (2.0 * a * c[:, :1]) ** 2, (2.0 * b * c[:, 1:2]) ** 2
            X, Z = d0[:, None] + a ** 2, (2.0 * qz * c[:, 2:3] + qz ** 2)[:, :, None]
            for lo in range(0, len(c), _CHUNK):
                e = slice(lo, lo + _CHUNK)
                l2, m2 = L2[e, :, None], M2[e, None, :]
                m = len(l2)
                b_, v = B[:m], V[:m]
                np.add((X[e, :, None] + b ** 2).reshape(m, 1, ab), Z[e], out=b_)
                np.multiply(b_, b_, out=v)
                v -= (l2 + m2).reshape(m, 1, ab)  # V
                b_ *= v
                v *= v
                v -= (4.0 * l2 * m2).reshape(m, 1, ab)
                b_ /= v
                avg[top + lo : top + lo + m] = b_.reshape(m, -1).sum(axis=1)
    bad = ~np.isfinite(avg)
    if np.any(bad):
        raise SolverError(f"near-resonant cell average of the Faddeev symbol for zeta = {zeta} "
                          f"is not finite at s = {s0[bad][0]}: a subsample lies on the "
                          "characteristic set s^2 + 2 s.zeta = 0")
    return avg * (4.0 / S ** 3)


class ConjugatedResolvent:
    """Fourier-multiplier inverse of e^{-i zeta x}(curl curl - k^2) e^{i zeta x},
    held by its scalar symbol inv = 1/(s^2 + 2 s.zeta) on the padded lattice:
    `apply` computes inv (f - q (q.f)/k^2), q = s + zeta.

    Bins within one spectral cell of the characteristic set s^2 + 2 s.zeta = 0
    carry the cell average of inv (`_cell_averages`; the set has codimension
    two, so it is finite), which tames the near-resonant multipliers of the
    coarse lattice.

    Lending: a signed axis permutation P keeps (P c).(P c) = c.c and maps the
    offset grid onto itself, so the cell averages obey
    A_{P zeta}(P s) = A_zeta(s), and A_{conj zeta}(s) = conj A_zeta(s).
    `lend = (near, P, conj)`, with `near` the (flat bin indices, cell
    averages) of a resolvent for zeta' on this grid and zeta = P zeta'
    (conjugated when `conj`), lends those averages through per-axis index
    maps, reflection (i -> -i mod p) and conjugation; near bins the lender
    lacks (by rounding at the near threshold) are averaged directly. P may
    exchange only axes of equal padded length, which share a lattice.
    """

    def __init__(self, zeta: np.ndarray, k: float, grid: Grid3, lend=None):
        z = self.zeta = np.asarray(zeta, dtype=np.complex128)
        self.k = float(k)
        self.padded = p = tuple(_padded_length(v) for v in grid.dims)
        (sx, sy, sz), s2 = _lattice(p, grid.spacing)
        denom = s2 + (2.0 * sx * z[0] + 2.0 * sy * z[1] + 2.0 * sz * z[2])
        ds = [sx[1, 0, 0], sy[0, 1, 0], sz[0, 0, 1]]  # spectral cell widths
        grad_scale = 4.0 * (abs(z).max() + k)
        near = np.abs(denom) < grad_scale * max(ds)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / denom  # every near bin is lent or averaged below
        flat, near_idx = inv.reshape(-1), np.flatnonzero(near)
        todo = near_idx if lend is None else self._borrow(flat, near.reshape(-1), *lend)
        i = np.unravel_index(todo, p)
        s0 = np.stack([sx.ravel()[i[0]], sy.ravel()[i[1]], sz.ravel()[i[2]]], axis=1)
        flat[todo] = _cell_averages(z, s0, ds)
        self._inv = inv
        self.near = (near_idx, flat[near_idx])
        self._s = (sx, sy, sz)  # the cached lattice

    @property
    def _q(self) -> tuple:
        """q = s + zeta on the padded lattice, its axes broadcast."""
        return tuple(s + z for s, z in zip(self._s, self.zeta))

    def apply(self, f: np.ndarray) -> np.ndarray:
        """A^{-1} f for amplitude-level values of shape (..., 3, nx, ny, nz),
        as `padded_fft_apply` computes it, except that the forward transform
        starts from the bounding box of f's nonzero cells, one DFT matrix
        per axis (`_box_dft`): a CGO source lives on the contrast's support
        box."""
        n = f.shape[-3:]
        cells = np.any(f != 0, axis=tuple(range(f.ndim - 3)))
        if not np.any(cells):
            return np.zeros(f.shape, dtype=np.complex128)
        box = _bounding_box(cells)
        E = [_box_dft(self.padded[a], box[a].start, box[a].stop) for a in range(3)]
        g = f[(Ellipsis,) + box] @ E[2].T
        g = np.matmul(E[1], g)
        g = (E[0] @ g.reshape(g.shape[:-2] + (-1,))).reshape(g.shape[:-3] + self.padded)
        return _cropped_ifft(self._symbol(g), n)

    def _symbol(self, g: np.ndarray) -> np.ndarray:
        """inv g - q (inv q.g/k^2), in place on the transforms g, one half of
        the first axis at a time, so its two work arrays together take one
        component's size."""
        q, h = self._q, (self.padded[0] + 1) // 2
        for e in (slice(0, h), slice(h, None)):
            f, inv, qe = np.moveaxis(g[..., e, :, :], -4, 0), self._inv[e], (q[0][e], q[1], q[2])
            qf, work = (qe[0] / self.k ** 2) * f[0], np.empty(f.shape[1:], dtype=np.complex128)
            for a in (1, 2):
                qf += np.multiply(qe[a] / self.k ** 2, f[a], out=work)
            qf *= inv
            for a in range(3):
                f[a] *= inv
                f[a] -= np.multiply(qe[a], qf, out=work)
        return g

    def box_symbol(self, dims: tuple) -> np.ndarray:
        """`symmetric_symbol` entries of A^{-1} restricted to a box of `dims`
        cells, on its 2 x dims lattice: inv (delta_ij - q_i q_j / k^2) through
        `_truncated_dft` on each axis. q_a varies along axis a only, so this
        needs the moments q_a^m inv, m <= 2: one matrix product per axis."""
        p, q, n = self.padded, self._q, [2 * s for s in dims]
        T = [_truncated_dft(p[a], dims[a]) * q[a].reshape(1, 1, -1) ** np.arange(3)[:, None, None]
             for a in range(3)]  # (3, 2 s_a, p_a), block m weighted by q_a^m
        M = T[0].reshape(-1, p[0]) @ self._inv.reshape(p[0], -1)
        M = T[1].reshape(-1, p[1]) @ M.reshape(-1, p[1], p[2])
        M = (M @ T[2].reshape(-1, p[2]).T).reshape(3, n[0], 3, n[1], 3, n[2])
        # M[m0, :, m1, :, m2] is the moment q_0^m0 q_1^m1 q_2^m2 inv; q_i q_j for i <= j:
        qq = M[[2, 1, 1, 0, 0, 0], :, [0, 1, 0, 2, 1, 0], :, [0, 0, 1, 0, 1, 2]] / self.k ** 2
        return np.array([1, 0, 0, 1, 0, 1])[:, None, None, None] * M[0, :, 0, :, 0] - qq

    def _borrow(self, flat, near, lent, P, conj):
        """Write the lender's averages `lent` into the near bins of `flat` they
        reach through P, clearing those bins in the flat mask `near`. Returns
        the near bins left, to average directly."""
        dst = _images(self.padded, P)[lent[0]]
        ok = near[dst]
        flat[dst[ok]] = np.conj(lent[1][ok]) if conj else lent[1][ok]
        near[dst] = False
        return np.flatnonzero(near)


@lru_cache(maxsize=8)
def _box_dft(p: int, lo: int, hi: int) -> np.ndarray:
    """(p, hi - lo) matrix of the p-point DFT of values at indices lo .. hi - 1
    of a zero-padded axis; cached."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(p), np.arange(lo, hi)) % p) / p)


def _images(p: tuple, P: np.ndarray) -> np.ndarray:
    """Flat index of the bin P s for each bin s of the padded lattice p (both
    flat, C order), through one index map per axis."""
    stride = (p[1] * p[2], p[2], 1)
    axis, sign = np.abs(P).argmax(axis=1).tolist(), P.sum(axis=1).astype(int).tolist()
    maps = [None] * 3  # index along axis axis[a] -> flat offset of its image on axis a
    for a in range(3):
        maps[axis[a]] = (sign[a] * np.arange(p[a]) % p[a]) * stride[a]
    return (maps[0][:, None, None] + maps[1][None, :, None] + maps[2][None, None, :]).ravel()

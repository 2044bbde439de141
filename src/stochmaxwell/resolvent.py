"""The conjugated Faddeev resolvent of the CGO remainder equation: the
Fourier-multiplier inverse of e^{-i zeta x}(curl curl - k^2) e^{i zeta x} on
the padded FFT lattice of a grid (Vainikko, "Fast solvers of the
Lippmann-Schwinger equation", 2000),

    A(q)^{-1} = (I - q q^T / k^2) / (s^2 + 2 s . zeta),   q = s + zeta,

held by its scalar symbol on an odd padded lattice. Near-resonant bins
carry cell averages of the symbol, computed once per symmetry orbit of bins
and lent, with the operator restricted to a box of cells (formed from
truncated DFTs of the symbol's axis moments), across the signed axis
permutations and conjugation that relate two zeta. The full-grid apply
transforms by one DFT matrix per axis both ways.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from .forward import SolverError
from .geometry import Grid3
from .greens import _ENTRY, _UPPER

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
_CHUNK = 32  # near bins per pass of `_cell_averages`


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
    offset grid onto itself, so the cell averages obey A_{P zeta}(P s) =
    A_zeta(s) and A_{conj zeta}(s) = conj A_zeta(s), and the box symbols
    S_{P zeta}(w) = P S_zeta(P^T w) P^T and S_{conj zeta}(w) = conj S_zeta(w).
    `lend = (near, box, P, conj)`, with `near` the (flat bin indices, cell
    averages) and `box` the `box_symbol` (or None) of a resolvent for zeta'
    on this grid and zeta = P zeta' (conjugated when `conj`), lends both
    through per-axis index maps, reflection (i -> -i mod p) and conjugation;
    near bins the lender lacks (by rounding at the near threshold) are
    averaged directly. P may exchange only axes of equal padded length,
    which share a lattice, and the box symbol goes to a box of its dims
    that P maps onto itself only.
    """

    def __init__(self, zeta: np.ndarray, k: float, grid: Grid3, lend=None):
        z = self.zeta = np.asarray(zeta, dtype=np.complex128)
        self.k = float(k)
        self.dims = grid.dims
        self.padded = p = tuple(_padded_length(v) for v in grid.dims)
        (sx, sy, sz), s2 = _lattice(p, grid.spacing)
        denom = s2 + (2.0 * sx * z[0] + 2.0 * sy * z[1] + 2.0 * sz * z[2])
        ds = [sx[1, 0, 0], sy[0, 1, 0], sz[0, 0, 1]]  # spectral cell widths
        grad_scale = 4.0 * (abs(z).max() + k)
        near = np.abs(denom) < grad_scale * max(ds)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / denom  # every near bin is lent or averaged below
        flat, near_idx = inv.reshape(-1), np.flatnonzero(near)
        todo = near_idx
        if lend is not None:  # the lender's averages, in the near bins they reach through P
            (src, avg), _, P, conj = lend
            dst, mask = _images(p, P, src), near.reshape(-1)
            ok = mask[dst]
            flat[dst[ok]] = np.conj(avg[ok]) if conj else avg[ok]
            mask[dst] = False
            todo = np.flatnonzero(mask)  # near bins the lender lacks
        if todo.size:
            i = np.unravel_index(todo, p)
            s0 = np.stack([sx.ravel()[i[0]], sy.ravel()[i[1]], sz.ravel()[i[2]]], axis=1)
            flat[todo] = _cell_averages(z, s0, ds)
        self._inv = inv
        self.near = (near_idx, flat[near_idx])
        self._q = tuple(s + c for s, c in zip((sx, sy, sz), z))  # q = s + zeta, axes broadcast
        self._box_lend = None if lend is None or lend[1] is None else lend[1:]  # (S0, P, conj)

    def apply(self, f: np.ndarray, box: tuple | None = None) -> np.ndarray:
        """A^{-1} f on the whole grid for amplitude-level values f (..., 3) +
        dims of `box` (index slices; the whole grid by default), zero off it,
        as `padded_fft_apply` computes it but with each transform one DFT
        matrix per axis: forward from the box (`_box_dft`), inverse onto the
        grid (`_grid_idft`). A CGO source lives on the contrast's box."""
        p, n = self.padded, self.dims
        box = box or tuple(slice(0, v) for v in n)
        E = [_box_dft(p[a], box[a].start, box[a].stop) for a in range(3)]
        D = [_grid_idft(p[a], n[a]) for a in range(3)]
        g = np.matmul(E[1], f @ E[2].T)
        g = self._symbol((E[0] @ g.reshape(g.shape[:-2] + (-1,))).reshape(g.shape[:-3] + p))
        g = (D[0] @ g.reshape(g.shape[:-3] + (p[0], -1))).reshape(g.shape[:-3] + (n[0],) + p[1:])
        return np.matmul(D[1], g @ D[2].T)

    def _symbol(self, g: np.ndarray) -> np.ndarray:
        """inv (g - q (q.g)/k^2) in place on the transforms g, in one pass:
        g *= inv, h = q.g/k^2, g_a -= q_a h, one half of the first axis at a
        time, so its two work arrays together take one component's size."""
        q, half = self._q, (self.padded[0] + 1) // 2
        for e in (slice(0, half), slice(half, None)):
            f, qe = np.moveaxis(g[..., e, :, :], -4, 0), (q[0][e], q[1], q[2])
            f *= self._inv[e]
            h, work = (qe[0] / self.k ** 2) * f[0], np.empty(f.shape[1:], dtype=np.complex128)
            for a in (1, 2):
                h += np.multiply(qe[a] / self.k ** 2, f[a], out=work)
            for a in range(3):
                f[a] -= np.multiply(qe[a], h, out=work)
        return g

    def box_symbol(self, dims: tuple) -> np.ndarray:
        """`symmetric_symbol` entries of A^{-1} restricted to a box of `dims`
        cells, on its 2 x dims lattice: inv (delta_ij - q_i q_j / k^2) through
        `_truncated_dft` on each axis. q_a varies along axis a only, so this
        needs the moments q_a^m inv, m <= 2: one matrix product per axis. A
        lent symbol of these dims is mapped instead; one formed here is kept
        as the build's own lend (P = I)."""
        n = tuple(2 * s for s in dims)
        S0, P, conj = self._box_lend or (None, None, False)
        if S0 is not None and S0.shape[1:] == n and np.array_equal(np.abs(P) @ n, n):
            axis, sign = np.abs(P).argmax(axis=1), P.sum(axis=1)  # P maps the lattice onto itself
            S = S0.reshape(6, -1)[[[_ENTRY[axis[i]][axis[j]]] for i, j in _UPPER],
                                  _images(n, P.T, np.arange(S0[0].size))]  # S0 at P^T w
            S *= np.array([sign[i] * sign[j] for i, j in _UPPER])[:, None]
            return (np.conj(S, out=S) if conj else S).reshape((6,) + n)
        p, q = self.padded, self._q
        T = [_truncated_dft(p[a], dims[a]) * q[a].reshape(1, 1, -1) ** np.arange(3)[:, None, None]
             for a in range(3)]  # (3, 2 s_a, p_a), block m weighted by q_a^m
        M = T[0].reshape(-1, p[0]) @ self._inv.reshape(p[0], -1)
        M = T[1].reshape(-1, p[1]) @ M.reshape(-1, p[1], p[2])
        M = (M @ T[2].reshape(-1, p[2]).T).reshape(3, n[0], 3, n[1], 3, n[2])
        # M[m0, :, m1, :, m2] is the moment q_0^m0 q_1^m1 q_2^m2 inv; q_i q_j for i <= j:
        qq = M[[2, 1, 1, 0, 0, 0], :, [0, 1, 0, 2, 1, 0], :, [0, 0, 1, 0, 1, 2]] / self.k ** 2
        S = np.array([1, 0, 0, 1, 0, 1])[:, None, None, None] * M[0, :, 0, :, 0] - qq
        self._box_lend = (S, np.eye(3), False)
        return S


@lru_cache(maxsize=8)
def _box_dft(p: int, lo: int, hi: int) -> np.ndarray:
    """(p, hi - lo) matrix of the p-point DFT of values at indices lo .. hi - 1
    of a zero-padded axis; cached."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(p), np.arange(lo, hi)) % p) / p)


@lru_cache(maxsize=8)
def _grid_idft(p: int, n: int) -> np.ndarray:
    """(n, p) matrix of the p-point inverse DFT onto indices 0 .. n - 1; cached."""
    return np.conj(_box_dft(p, 0, n)).T / p


def _images(p: tuple, P: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Flat index of the bin P s for each flat bin s (C order) of the lattice
    p, through one index map per axis: (P s)_a = sign_a s_{axis_a}."""
    stride = (p[1] * p[2], p[2], 1)
    axis, sign = np.abs(P).argmax(axis=1).tolist(), P.sum(axis=1).astype(int).tolist()
    maps = [None] * 3  # index along axis axis[a] -> flat offset of its image on axis a
    for a in range(3):
        maps[axis[a]] = (sign[a] * np.arange(p[a]) % p[a]) * stride[a]
    i = np.unravel_index(s, p)
    return maps[0][i[0]] + maps[1][i[1]] + maps[2][i[2]]

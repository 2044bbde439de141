"""Source-strength reconstruction from boundary-trace ensembles.

The chain implemented here: the Ito isometry turns the empirical correlation
of two boundary functionals B_j = ik int J . U_j into the volume integral
-k^2 int sigma U_1 . U_2; with a conjugate CGO pair that product is
e^{-i xi . x}(1 - |xi|^2/4t^2) up to a remainder, so the correlation is a
(scaled) Fourier sample of sigma at xi. Sampling a lattice of xi inside a
low-pass ball and inverting the transform yields the regularized
reconstruction, whose accuracy is logarithmic in the measured data size
epsilon.

The stage works at the wavenumber and on the sphere mesh of its capacity
operator, and reads only the tangential part of the traces: every nodal
quantity on the sphere is held by its (theta_hat, phi_hat) components, 2N
numbers for N mesh nodes. Each boundary functional is folded into a single
dual vector D in that frame (F(trace) = sum_{n,t} x_{n,t} D_{n,t} for the
frame components x of the trace). The traces are linear in Gaussian noise, so
an ensemble X (M, 2N) enters only through its two (2N)^2 Grams K0 = X^T X / M
and Kc = X^T conj(X) / M: each sample mean is a bilinear form D_1^T K0 D_2 and
its Gaussian (Isserlis) standard error a form in Kc. The data size epsilon
comes from K0 and the capacity operator acting on it. `_moments` reduces each
ensemble to (M, K0, Kc, epsilon), and the estimator core takes only these. The
dual vectors are built per block of CGO columns from the frame components of
the test data, the transposed capacity acting on them as a circular
convolution over the azimuthal mesh index. The lattice, the columns, their
remainder solves and the duals depend on the schedule (t, rho) only, so
ensembles on one schedule (the source scalings of a stability sweep) share
them.

sigma is real, so sigma_hat(-xi) = conj sigma_hat(xi): only the lattice
nodes up to xi = 0 are estimated, and each antipode is filled with the
conjugate of its node's estimate and shares its standard error.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .capacity import CapacityOperator
from .cgo import CgoRemainderSolver, box_radius, build_zeta_eta, cgo_on_sphere
from .geometry import ConfigurationError, Grid3, MediumSpec, SourceStrength, evaluate_on_grid

__all__ = ["KernelEpsilon", "ReconstructionResult", "dual_functional_vector", "measure_epsilon",
           "select_parameters", "build_xi_lattice", "hermitian_symmetrize", "fourier_synthesis",
           "reconstruct_sigma", "stability_sweep"]

# |1 - |xi|^2/4t^2| below this means the leading product coefficient is about
# to vanish and the Fourier sample is unrecoverable at this t
LEADING_GUARD = 1e-3

# CGO columns (xi, frame, member) whose duals are built together and meet the
# Grams in one product: one chunk holds its dual buffer and a buffer of half
# its size (at 338 nodes, 11 and 5.5 MB), whatever the number of realizations
PRODUCT_COLUMNS = 1024
# Gram and kernel rows per block (even: whole nodes); 64 bounds epsilon's peak at 338 nodes
GRAM_BLOCK = 64
# CGO columns whose remainder solves, test data and dual vectors are built
# together; the block holds one complex reciprocal symbol per column on the
# resolvent's odd padded lattice (21^3 for the bench's 10^3 grid; 128 columns
# once raised that run's peak RSS to 158 MB)
DUAL_BLOCK = 16


@dataclass(frozen=True)
class KernelEpsilon:
    """Empirical norms of the three boundary-data kernels; the data size
    epsilon is their maximum."""

    norm1: float
    norm2: float
    norm3: float

    @property
    def epsilon(self) -> float:
        return max(self.norm1, self.norm2, self.norm3)


@dataclass(frozen=True)
class ReconstructionResult:
    xi_nodes: np.ndarray  # (n_xi, 3)
    dxi: float
    rho: float
    t: float
    epsilon: float
    sample_count: int
    sigma_hat: np.ndarray  # (n_xi,) samples; node n_xi - 1 - i is conj of node i
    stderr: np.ndarray  # (n_xi,) Monte Carlo standard error, mirrored like sigma_hat
    sigma_rec: np.ndarray  # grid.dims, real float64
    imag_residue: float
    l2_error: float | None = None
    linf_error: float | None = None
    rel_l2_error: float | None = None


def _real_rows(traces, mesh) -> np.ndarray:
    """Real rows Y (4N, M), Y[2p] = Re x_p and Y[2p + 1] = Im x_p for the columns
    x_p of an ensemble of (theta_hat, phi_hat) trace components X (M, N, 2), M > 0."""
    X = np.asarray(traces, dtype=np.complex128)
    if X.shape[1:] != (mesh.n_nodes, 2) or not len(X):
        raise ValueError("trace ensemble must be frame components (M, n_nodes, 2), M > 0")
    Xt = X.reshape(len(X), -1).T  # C-ordered for the layout `SphereMesh.to_frame` returns
    Y = np.empty((len(Xt), 2, len(X)))
    Y[:, 0], Y[:, 1] = Xt.real, Xt.imag
    return Y.reshape(-1, len(X))


def dual_functional_vector(capacity: CapacityOperator, u: np.ndarray,
                           curlu: np.ndarray) -> np.ndarray:
    """Dual vector D (..., N, 2) of the boundary functional for fixed test data
    (U, curl U) given by their (theta_hat, phi_hat) frame components (..., N, 2).

    The functional is integration by parts against U: for E radiating with
    source f inside the sphere and U solving the homogeneous equation,

        int_{B_R} f . U dx = - int_{dB_R} [ i k T(E x nu) . U + (E x nu) . curl U ] ds

    with T the capacity operator. With x the frame components of E x nu, C
    the capacity on frame components and w the quadrature weights,
    sum_n w_n U_n . (C x)_n = sum (C^T (w U)) . x, so sum_{n,t} x_{n,t} D_{n,t}
    is the quadrature of the right-hand side for D = -(i k C^T (w U) + w curl U),
    a plain bilinear nodal pairing. `verify.ibp_identity` checks it against
    the volume side.
    """
    w = capacity.mesh.weights[:, None]
    return -(1j * capacity.k * capacity.apply_frame_transpose(w * u) + w * curlu)


def _component_squares(K: np.ndarray, E: np.ndarray, n0: int) -> np.ndarray:
    """(3, 3) sums of squares of the Cartesian blocks (E^T K E)_ij of the rows K (2 nb, 2N)
    of a frame kernel at nodes n0 .., E (3, 2, N) real: the frames times sqrt(w)."""
    N, nb = E.shape[-1], len(K) // 2
    K = K.view(np.float64).reshape(nb, 2, N, 2, 2).transpose(0, 1, 3, 4, 2).copy()
    En = E[:, :, n0 : n0 + nb, None, None, None]  # K is [n, s, t, re/im, m]
    squares = np.empty((3, 3))
    for i in range(3):
        part = En[i, 0] * K[:, 0]
        part += En[i, 1] * K[:, 1]
        for j in range(3):
            block = part[:, 0] * E[j, 0]
            block += part[:, 1] * E[j, 1]
            squares[i, j] = np.dot(block.ravel(), block.ravel())
    return squares


def measure_epsilon(traces, capacity: CapacityOperator) -> KernelEpsilon:
    """Empirical outer-product kernel norms of the boundary data.

    The three kernels carry zero, one, and two capacity factors on the trace;
    each norm is sum_{ij} of the L^2(dB x dB) norms of the 3x3 Cartesian
    components, computed by double surface quadrature (weights folded into a
    Frobenius norm of the node-space kernel). All three come from the one
    tangential Gram K0 = X^T X / M of the frame components X (M, 2N):
    K1 = C K0 and K2 = C K0 C^T, with C the capacity on frame vectors (K0 is
    symmetric, so K0 C^T is the transpose of K1).
    """
    Y = _real_rows(traces, capacity.mesh)
    return _kernel_epsilon(_grams(Y)[0], Y.shape[1], capacity)


def _grams(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K0 = X^T X / M and Kc = X^T conj(X) / M (2N, 2N) from the real Gram of
    the real rows Y of X: with aa, ab, ba, bb its (re, re), (re, im), (im, re)
    and (im, im) entries, K0 = (aa - bb) + i (ab + ba) and Kc = (aa + bb) +
    i (ba - ab). Each block of rows is one real product from the diagonal on, its
    diagonal block symmetrized and the rest mirrored: K0 and Kc are exactly
    symmetric and Hermitian."""
    n, M = len(Y) // 2, Y.shape[1]
    K0 = np.empty((n, n), dtype=np.complex128)
    Kc = np.empty_like(K0)
    for lo in range(0, n, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, n)
        G = Y[2 * lo : 2 * hi] @ Y[2 * lo :].T / M
        lower = np.tril_indices(2 * (hi - lo), -1)
        G[lower] = G.T[lower]
        aa, ab, ba, bb = G[0::2, 0::2], G[0::2, 1::2], G[1::2, 0::2], G[1::2, 1::2]
        np.subtract(aa, bb, out=K0.real[lo:hi, lo:])
        np.add(ab, ba, out=K0.imag[lo:hi, lo:])
        np.add(aa, bb, out=Kc.real[lo:hi, lo:])
        np.subtract(ba, ab, out=Kc.imag[lo:hi, lo:])
        K0[hi:, lo:hi] = K0[lo:hi, hi:].T
        np.conjugate(Kc[lo:hi, hi:].T, out=Kc[hi:, lo:hi])
    return K0, Kc


def _kernel_epsilon(K0: np.ndarray, M: int, capacity: CapacityOperator) -> KernelEpsilon:
    """`measure_epsilon` from the Gram K0 of an M-realization ensemble. Each
    norm sums its squares over blocks of GRAM_BLOCK rows, so beside K0 only
    K0 C^T is held: rows of C K0 C^T are the capacity on columns of K0 C^T."""
    if M < 2:
        raise ConfigurationError("kernel estimation needs at least two realizations")
    mesh = capacity.mesh
    E = np.sqrt(mesh.weights) * mesh.frame.transpose(1, 2, 0)  # (3, 2, N)

    def capacity_rows(Z):  # Z C^T: the capacity applied to each row of Z
        return capacity.apply_frame(Z.reshape(len(Z), mesh.n_nodes, 2)).reshape(Z.shape)

    def norm(rows):  # rows(lo): the kernel's rows lo .. lo + GRAM_BLOCK, made when read
        return float(np.sqrt(sum(_component_squares(rows(lo), E, lo // 2)
                                 for lo in range(0, len(K0), GRAM_BLOCK))).sum())

    K1t = capacity_rows(K0)  # K0 C^T = K1^T
    return KernelEpsilon(norm1=norm(lambda lo: K0[lo : lo + GRAM_BLOCK]),
                         norm2=norm(lambda lo: K1t[lo : lo + GRAM_BLOCK]),
                         norm3=norm(lambda lo: capacity_rows(K1t[:, lo : lo + GRAM_BLOCK].T)))


def select_parameters(
    epsilon: float,
    s: float,
    R_prime: float,
    k: float,
    M1: float = 1.0,
    t_max: float | None = None,
) -> tuple[float, float]:
    """Growth parameter and low-pass cutoff from the measured data size.

    t = max(-log(eps)/(2 R'), 1 + 1e-6, M1 + 2k), optionally capped at t_max
    (the cap trades theoretical resolution for bounded exponential dynamic
    range on a fixed grid), then rho = t^{2/(7+2s)}. Always returns rho > 1
    and a t admissible for every |xi| <= rho. The constants s and M1 must be
    positive.
    """
    if not (s > 0 and M1 > 0):
        raise ConfigurationError(f"stability constants must be positive, got s={s}, M1={M1}")
    if epsilon <= 0.0:
        raise ConfigurationError("epsilon must be positive (degenerate data)")
    if epsilon >= 1.0:
        raise ConfigurationError("epsilon must be below 1 for the log schedule")
    if t_max is not None and not t_max > 0:
        raise ConfigurationError(f"t_max must be positive, got {t_max}")
    t = max(-np.log(epsilon) / (2.0 * R_prime), 1.0 + 1e-6, M1 + 2.0 * k)
    if t_max is not None:
        t = min(t, float(t_max))
    rho = t ** (2.0 / (7.0 + 2.0 * s))
    return float(t), float(rho)


def build_xi_lattice(rho: float, R_prime: float) -> tuple[np.ndarray, float]:
    """Uniform Cartesian xi-lattice clipped to the ball |xi| <= rho.

    Spacing pi/R' capped so the retained ball holds at least 7^3 nodes
    (enough quadrature nodes per dimension for the synthesis even when rho is
    small). Node n - 1 - i is the antipode of node i bit for bit, and node
    n // 2 is xi = 0: the axis is symmetric ((-j) dxi == -(j dxi) in IEEE
    arithmetic), the meshgrid order reverses under negation, and the ball
    clip is symmetric.
    """
    if rho <= 0:
        raise ConfigurationError("cutoff rho must be positive")
    dxi = min(np.pi / R_prime, rho / 4.5)
    nmax = int(np.floor(rho / dxi + 1e-12))
    ax = np.arange(-nmax, nmax + 1) * dxi
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    nodes = nodes[np.einsum("ni,ni->n", nodes, nodes) <= rho ** 2 + 1e-12]
    return nodes, float(dxi)


def hermitian_symmetrize(xi_nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The samples of the whole lattice from the estimates at nodes 0 .. n // 2:
    node n - 1 - i is conj of node i, and node n // 2 (xi = 0) keeps its real
    part. The lattice must be ordered as `build_xi_lattice` orders it."""
    xi_nodes = np.asarray(xi_nodes)
    if len(xi_nodes) != 2 * len(values) - 1 or not np.array_equal(xi_nodes[::-1], -xi_nodes):
        raise ValueError("values must be the estimates at nodes 0 .. n // 2, and node "
                         "n - 1 - i of the xi lattice the antipode of node i")
    half = np.array(values, dtype=np.complex128)
    half[-1] = half[-1].real
    return np.concatenate([half, np.conj(half[-2::-1])])


def fourier_synthesis(
    xi_nodes: np.ndarray, sigma_hat: np.ndarray, dxi: float, grid: Grid3
) -> tuple[np.ndarray, float]:
    """Trapezoidal inverse transform (2pi)^{-3} sum sigma_hat e^{i xi . x} dxi^3.

    The nodes lie on the dxi lattice and the grid is Cartesian, so the phase
    factors per axis: the samples are scattered into the (2 nmax + 1)^3 index
    cube, which is contracted with one (2 nmax + 1, n) phase table per axis.
    Returns the real part, float64 of shape grid.dims, plus the relative norm
    of the discarded imaginary residue.
    """
    idx = np.rint(np.asarray(xi_nodes) / dxi).astype(np.int64)
    if not np.allclose(idx * dxi, xi_nodes, rtol=0.0, atol=1e-9 * dxi):
        raise ValueError("xi nodes must lie on the dxi lattice")
    nmax = int(np.abs(idx).max())
    rec = np.zeros((2 * nmax + 1,) * 3, dtype=np.complex128)
    np.add.at(rec, tuple((idx + nmax).T), sigma_hat)
    freqs = np.arange(-nmax, nmax + 1) * dxi
    for ax in grid.axes():
        # contracts the leading frequency axis and appends this grid axis
        rec = np.tensordot(rec, np.exp(1j * np.multiply.outer(freqs, ax)), axes=(0, 0))
    rec *= dxi ** 3 / (2.0 * np.pi) ** 3
    norm = np.linalg.norm(rec)
    residue = float(np.linalg.norm(rec.imag) / norm) if norm > 0 else 0.0
    return rec.real.copy(), residue


def _frame_moments(D: np.ndarray, M: int, K0: np.ndarray, Kc: np.ndarray):
    """Per xi, the frame average of mean(B_1 B_2) = D_1^T K0 D_2 and its
    Gaussian standard error, from the duals D (xi, frame, member, 2N) and the
    Grams K0 = X^T X / M, Kc = X^T conj(X) / M of an M-realization ensemble X.
    By Isserlis' theorem one realization's frame average has variance
    sum_fg (H11 H22 + H12 H21)_fg / F^2 with H^ab = D_a Kc D_b^H (H21 = H12^H);
    the G^ab formed are their conjugates, which leave that real sum as it is.
    One (xi, F, 2N) buffer takes each product with a Gram in turn."""
    F = D.shape[1]
    D1, D2 = D[:, :, 0], D[:, :, 1]
    P = np.empty(D1.shape, dtype=np.complex128)
    flat = P.reshape(-1, D.shape[-1])
    np.matmul(D2.reshape(flat.shape), K0, out=flat)
    mean = np.einsum("xfn,xfn->x", D1, P) / F
    np.conjugate(np.matmul(D1.reshape(flat.shape), Kc, out=flat), out=flat)
    G11, G12 = P @ D1.transpose(0, 2, 1), P @ D2.transpose(0, 2, 1)
    np.conjugate(np.matmul(D2.reshape(flat.shape), Kc, out=flat), out=flat)
    G22 = P @ D2.transpose(0, 2, 1)
    var = np.sum(G11 * G22 + G12 * G12.conj().transpose(0, 2, 1), axis=(1, 2)).real
    return mean, (np.sqrt(var / M) / F if M > 1 else np.inf)


def _moments(traces, capacity: CapacityOperator, epsilon: float | None = None):
    """An ensemble reduced to what the estimator reads, (M, K0, Kc, epsilon): the Grams
    K0 = X^T X / M and Kc = X^T conj(X) / M (2N, 2N) of its frame components X (M, 2N)
    and its data size, measured from K0 when None, after the real rows are dropped."""
    Y = _real_rows(traces, capacity.mesh)
    del traces  # an ensemble handed over as a temporary of the call is freed here
    M, (K0, Kc) = Y.shape[1], _grams(Y)
    del Y
    if epsilon is None:
        epsilon = _kernel_epsilon(K0, M, capacity).epsilon
    return M, K0, Kc, epsilon


def reconstruct_sigma(traces, capacity: CapacityOperator, R_prime: float,
                      medium: MediumSpec, grid: Grid3, s: float = 1.0, M1: float = 1.0,
                      t_max: float | None = 8.0, rho_override: float | None = None,
                      n_frames: int = 1, epsilon: float | None = None,
                      ground_truth: SourceStrength | None = None, tol: float = 1e-10,
                      max_iter: int = 60) -> ReconstructionResult:
    """Full pipeline: measured epsilon -> (t, rho) -> Fourier samples -> sigma,
    at the wavenumber and on the mesh of `capacity`.

    `traces` holds the ensemble as its frame components (M, N, 2); passed as
    a temporary of the call, it is freed once copied to its real rows. `s` and
    `M1` are the stability constants of `select_parameters`.

    Each sample is sigma_hat(xi) = -mean(B_1 B_2) / (k^2 (1 - |xi|^2/4t^2));
    the CGO product remainder is not subtracted (it vanishes for m = 0). Its
    stderr is the Gaussian plug-in of `_frame_moments` (infinite for M = 1).

    `rho_override` widens (or narrows) the low-pass ball beyond the worst-case
    schedule value; for a homogeneous medium the Fourier estimator is unbiased
    at every admissible xi, so the schedule's pessimistic cutoff needlessly
    truncates the spectrum and the override is the honest choice. `n_frames`
    averages the correlation over rotated transverse frames per realization,
    which shrinks the Monte Carlo variance without touching the mean. `tol`
    and `max_iter` bound each CGO remainder solve (`CgoRemainderSolver`).
    """
    traces = [traces]  # popped into `_moments`, which drops it once it is copied
    moments = (_moments(traces.pop(), capacity, epsilon) for _ in range(1))  # read after the checks
    return _reconstruct(moments, [ground_truth], capacity, R_prime, medium, grid, s, M1,
                        t_max, rho_override, n_frames, tol, max_iter)[0]


def _reconstruct(moments, truths, capacity, R_prime, medium, grid, s=1.0, M1=1.0, t_max=8.0,
                 rho_override=None, n_frames=1, tol=1e-10,
                 max_iter=60) -> list[ReconstructionResult]:
    """`reconstruct_sigma` of several ensembles, each given by its `_moments`
    and its ground truth (or None). `moments` may be an iterator, read after
    the options are checked, so an ensemble made for it can be dropped before
    the next is made. The lattice, CGO columns, remainder solves and dual
    vectors depend only on (t, rho): they are built once per distinct
    schedule, and each chunk of dual vectors meets the moments of every
    ensemble on it."""
    k, mesh = capacity.k, capacity.mesh
    if rho_override is not None and rho_override <= 0:
        raise ConfigurationError(
            f"[reconstruction] rho_override must be positive, got {rho_override}")
    if n_frames < 1:
        raise ConfigurationError(f"[reconstruction] n_frames must be at least 1, got {n_frames}")
    reduced, schedules = [], {}  # (M, K0, Kc, epsilon) per ensemble; (t, rho) -> its ensembles
    for m in moments:
        t, rho = select_parameters(m[3], s, R_prime, k, M1, t_max)
        if rho_override is not None:
            rho = float(rho_override)
        # |xi| <= rho keeps the leading coefficient 1 - |xi|^2/4t^2 above the guard
        if rho > 2.0 * t * np.sqrt(1.0 - LEADING_GUARD):
            raise ConfigurationError(
                f"cutoff rho={rho:.2f} exceeds the admissible band for t={t:.2f}"
            )
        schedules.setdefault((t, rho), []).append(len(reduced))
        reduced.append(m)

    azimuths = np.pi * np.arange(n_frames) / n_frames
    results = [None] * len(reduced)
    for (t, rho), members in schedules.items():
        xi_nodes, dxi = build_xi_lattice(rho, R_prime)
        n_est = len(xi_nodes) // 2 + 1  # nodes 0 .. n // 2; the rest are their antipodes
        # one column per (xi, frame, member); the overflow guard is checked here,
        # at the largest |xi|, for every column
        zeta, eta, lead = build_zeta_eta(
            xi_nodes[:n_est, None], t, k, azimuths[None], box_radius(grid)
        )
        solver = CgoRemainderSolver(k, medium, grid, tol, max_iter)  # lending stays in one schedule

        sigma_hat = np.empty((len(members), n_est), dtype=np.complex128)
        stderr = np.empty((len(members), n_est))
        chunk = max(1, PRODUCT_COLUMNS // (2 * n_frames))  # xi per trace product
        for lo in range(0, n_est, chunk):
            ids = slice(lo, lo + chunk)
            z_cols = zeta[ids].reshape(-1, 3)
            e_cols = eta[ids].reshape(-1, 3)
            duals = np.empty((len(z_cols), mesh.n_nodes, 2), dtype=np.complex128)
            for b in range(0, len(z_cols), DUAL_BLOCK):
                zb, eb = z_cols[b : b + DUAL_BLOCK], e_cols[b : b + DUAL_BLOCK]
                # for m = 0 the CGO pair is the exact plane-wave pair; W is not kept
                # beside the next block's
                test_data = cgo_on_sphere(zb, eb, None if solver.homogeneous
                                          else solver.solve(zb, eb)[0], grid, mesh)
                duals[b : b + len(zb)] = dual_functional_vector(capacity, *test_data)
            D = duals.reshape(len(duals) // (2 * n_frames), n_frames, 2, -1)
            for j, i in enumerate(members):
                mean, sd = _frame_moments(D, *reduced[i][:3])
                sigma_hat[j, ids] = (-mean / k ** 2) / lead[ids, 0]
                stderr[j, ids] = sd / (k ** 2 * np.abs(lead[ids, 0]))

        for j, i in enumerate(members):
            samples = hermitian_symmetrize(xi_nodes, sigma_hat[j])
            sigma_rec, residue = fourier_synthesis(xi_nodes, samples, dxi, grid)
            l2 = linf = rel = None
            if truths[i] is not None:
                gt = evaluate_on_grid(truths[i], grid)
                diff = sigma_rec - gt
                h3 = grid.cell_volume
                l2 = float(np.linalg.norm(diff) * np.sqrt(h3))
                linf = float(np.max(np.abs(diff)))
                gt_norm = np.linalg.norm(gt) * np.sqrt(h3)
                rel = float(l2 / gt_norm) if gt_norm > 0 else float("inf")
            results[i] = ReconstructionResult(
                xi_nodes=xi_nodes, dxi=dxi, rho=rho, t=t, epsilon=float(reduced[i][3]),
                sample_count=reduced[i][0], sigma_hat=samples,
                stderr=hermitian_symmetrize(xi_nodes, stderr[j]).real, sigma_rec=sigma_rec,
                imag_residue=residue, l2_error=l2, linf_error=linf, rel_l2_error=rel)
    return results


def stability_sweep(ensemble_factory, sigma: SourceStrength, capacity: CapacityOperator,
                    R_prime: float, medium: MediumSpec, grid: Grid3, alphas, s: float = 1.0,
                    **recon_kwargs):
    """Scale sigma -> alpha sigma, take its ensemble from the factory, and tabulate
    the logarithmic-stability check quantity ||alpha sigma|| (-log eps)^{4s/(7+2s)}.

    `ensemble_factory(alpha)` must return the frame components of the trace
    ensemble for the scaled source. Each ensemble is reduced to its moments
    before the next is made; alphas on one (t, rho) share its CGO solves and
    dual vectors. Returns one row per alpha.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise ConfigurationError(f"[sweep] alphas must be positive, got {alphas}")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigurationError(f"[sweep] alphas must be strictly decreasing, got {alphas}")
    scaled = [SourceStrength(tuple(replace(b, amplitude=b.amplitude * alpha) for b in sigma.bumps),
                             sigma.ball_radius) for alpha in alphas]
    results = _reconstruct((_moments(ensemble_factory(alpha), capacity) for alpha in alphas),
                           scaled, capacity, R_prime, medium, grid, s, **recon_kwargs)
    expo = 4.0 * s / (7.0 + 2.0 * s)  # s > 0: select_parameters refuses the rest
    rows = []
    for alpha, source, result in zip(alphas, scaled, results):
        sig = evaluate_on_grid(source, grid)
        sig_l2 = float(np.sqrt((sig ** 2).sum() * grid.cell_volume))
        check = sig_l2 * (-np.log(result.epsilon)) ** expo
        rows.append({"alpha": alpha, "epsilon": result.epsilon, "sigma_l2": sig_l2,
                     "rel_l2_error": result.rel_l2_error, "check_quantity": check})
    return rows

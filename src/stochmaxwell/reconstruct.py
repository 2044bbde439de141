"""Source-strength reconstruction from boundary-trace ensembles.

The chain implemented here: the Ito isometry turns the empirical correlation
of two boundary functionals B_j = ik int J . U_j into the volume integral
-k^2 int sigma U_1 . U_2; with a conjugate CGO pair that product is
e^{-i xi . x}(1 - |xi|^2/4t^2) up to a remainder, so the correlation is a
(scaled) Fourier sample of sigma at xi. Sampling a lattice of xi inside a
low-pass ball and inverting the transform yields the regularized
reconstruction, whose accuracy is logarithmic in the measured data size
epsilon.

The stage reads only the tangential part of the traces: every nodal
quantity on the sphere is held by its (theta_hat, phi_hat) components, 2N
numbers for N mesh nodes. Each boundary functional is folded into a single
dual vector D in that frame (F(trace) = sum_{n,t} x_{n,t} D_{n,t} for the
frame components x of the trace), so evaluating 10^4-realization ensembles
at hundreds of frequencies reduces to one (M, 2N) x (2N, columns) complex
matrix product. The dual vectors themselves are built per block of CGO
columns from the frame components of the test data, the transposed capacity
acting on them as a circular convolution over the azimuthal mesh index. The
data size epsilon comes from one (2N)^2 Gram of the traces and the capacity
operator acting on it.

sigma is real, so sigma_hat(-xi) = conj sigma_hat(xi): only the lattice
nodes up to xi = 0 are estimated, and each antipode is filled with the
conjugate of its node's estimate and shares its standard error.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .capacity import CapacityOperator
from .cgo import (
    CgoRemainderSolver,
    StabilityConstants,
    box_radius,
    build_zeta_eta,
    cgo_on_sphere,
)
from .geometry import (
    ConfigurationError,
    Grid3,
    MediumSpec,
    ScalarFieldC,
    SourceStrength,
    evaluate_on_grid,
)

__all__ = [
    "KernelEpsilon",
    "ReconstructionResult",
    "dual_functional_vector",
    "measure_epsilon",
    "select_parameters",
    "build_xi_lattice",
    "hermitian_symmetrize",
    "fourier_synthesis",
    "reconstruct_sigma",
    "stability_sweep",
]

# |1 - |xi|^2/4t^2| below this means the leading product coefficient is about
# to vanish and the Fourier sample is unrecoverable at this t
LEADING_GUARD = 1e-3

# CGO columns (xi, frame, member) whose duals meet the traces in one product:
# more columns at once gain no speed and, at desk size (M = 2000, 338 nodes),
# make the dual buffer (1,024 x 2N complex, 11 MB) and the product
# (M x 1,024, 33 MB) the peak memory of the reconstruction.
PRODUCT_COLUMNS = 1024
# CGO columns whose test data and dual vectors are built together; for
# remainder solutions 128 columns took the same CPU time and raised the peak
# RSS of the 10^3-grid inhomogeneous reconstruction from 108 to 158 MB
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
    sigma_rec: ScalarFieldC
    imag_residue: float
    l2_error: float | None = None
    linf_error: float | None = None
    rel_l2_error: float | None = None


def _tangential_traces(traces, mesh) -> np.ndarray:
    """An ensemble as (M, N, 2) complex (theta_hat, phi_hat) components: Cartesian
    traces (M, N, 3) are projected onto the frame, frame components pass."""
    arr = np.asarray(traces, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != mesh.n_nodes or arr.shape[2] not in (2, 3):
        raise ValueError("trace ensemble must have shape (M, n_nodes, 3) or (M, n_nodes, 2)")
    return arr if arr.shape[2] == 2 else mesh.to_frame(arr)


def dual_functional_vector(capacity: CapacityOperator, u: np.ndarray,
                           curlu: np.ndarray) -> np.ndarray:
    """Dual vector D (..., N, 2) of the boundary functional for fixed test data
    (U, curl U) given by their (theta_hat, phi_hat) frame components (..., N, 2).

    sum_{n,t} x_{n,t} D_{n,t} reproduces `boundary_functional` for every
    tangential trace with frame components x: with C the capacity on frame
    components, sum_n w_n U_n . (C x)_n = sum (C^T (w U)) . x, so
    D = -(i k C^T (w U) + w curl U), a plain bilinear nodal pairing.
    """
    w = capacity.basis.mesh.weights[:, None]
    return -(1j * capacity.k * capacity.apply_frame_transpose(w * u) + w * curlu)


def _component_norm(K: np.ndarray, mesh) -> float:
    """sum_{ij} of the Frobenius norms of the Cartesian component blocks
    (E^T K E)_ij of a frame kernel K (2N, 2N), weighted by sqrt(w_n w_m)."""
    N = mesh.n_nodes
    E = np.sqrt(mesh.weights)[:, None, None] * mesh.frame  # (N, 3, 2)
    K = K.reshape(N, 2, N, 2)
    total = 0.0
    for i in range(3):
        rows = E[:, i, 0, None, None] * K[:, 0] + E[:, i, 1, None, None] * K[:, 1]
        for j in range(3):
            total += np.linalg.norm(rows[..., 0] * E[:, j, 0] + rows[..., 1] * E[:, j, 1])
    return float(total)


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
    mesh = capacity.basis.mesh
    X = _tangential_traces(traces, mesh)
    M = X.shape[0]
    if M < 2:
        raise ConfigurationError("kernel estimation needs at least two realizations")
    X = X.reshape(M, -1)
    K = (X.T @ X) / M

    def capacity_rows(Z):  # Z C^T: the capacity applied to each row of Z
        return capacity.apply_frame(Z.reshape(len(Z), mesh.n_nodes, 2)).reshape(Z.shape)

    norm1 = _component_norm(K, mesh)
    K = capacity_rows(K)  # K0 C^T = K1^T
    norm2 = _component_norm(K, mesh)
    K = capacity_rows(K.T)  # K1 C^T = C K0 C^T
    return KernelEpsilon(norm1=norm1, norm2=norm2, norm3=_component_norm(K, mesh))


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
    and a t admissible for every |xi| <= rho.
    """
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
) -> tuple[ScalarFieldC, float]:
    """Trapezoidal inverse transform (2pi)^{-3} sum sigma_hat e^{i xi . x} dxi^3.

    The nodes lie on the dxi lattice and the grid is Cartesian, so the phase
    factors per axis: the samples are scattered into the (2 nmax + 1)^3 index
    cube, which is contracted with one (2 nmax + 1, n) phase table per axis.
    Returns the real part as a field plus the relative norm of the discarded
    imaginary residue.
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
    return ScalarFieldC(grid, rec.real.astype(np.complex128)), residue


def reconstruct_sigma(
    traces,
    capacity: CapacityOperator,
    k: float,
    R_prime: float,
    medium: MediumSpec,
    grid: Grid3,
    constants: StabilityConstants = StabilityConstants(),
    t_max: float | None = 8.0,
    rho_override: float | None = None,
    n_frames: int = 1,
    epsilon: float | None = None,
    ground_truth: SourceStrength | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> ReconstructionResult:
    """Full pipeline: measured epsilon -> (t, rho) -> Fourier samples -> sigma.

    `traces` holds the ensemble as Cartesian samples (M, N, 3) or as their
    frame components (M, N, 2); only the tangential part is read.

    Each sample is sigma_hat(xi) = -mean(B_1 B_2) / (k^2 (1 - |xi|^2/4t^2));
    the CGO product remainder is not subtracted (it vanishes for m = 0).

    `rho_override` widens (or narrows) the low-pass ball beyond the worst-case
    schedule value; for a homogeneous medium the Fourier estimator is unbiased
    at every admissible xi, so the schedule's pessimistic cutoff needlessly
    truncates the spectrum and the override is the honest choice. `n_frames`
    averages the correlation over rotated transverse frames per realization,
    which shrinks the Monte Carlo variance without touching the mean. `tol`
    and `max_iter` bound each CGO remainder solve (`CgoRemainderSolver`).
    """
    mesh = capacity.basis.mesh
    x = _tangential_traces(traces, mesh)
    M = x.shape[0]
    if M == 0:
        raise ValueError("trace ensemble is empty")
    if k != capacity.k:
        raise ValueError("wavenumber does not match the capacity operator")
    if epsilon is None:
        epsilon = measure_epsilon(x, capacity).epsilon
    t, rho = select_parameters(epsilon, constants.s, R_prime, k, constants.M1, t_max)
    if rho_override is not None:
        rho = float(rho_override)
    # |xi| <= rho keeps the leading coefficient 1 - |xi|^2/4t^2 above the guard
    if rho > 2.0 * t * np.sqrt(1.0 - LEADING_GUARD):
        raise ConfigurationError(
            f"cutoff rho={rho:.2f} exceeds the admissible band for t={t:.2f}"
        )
    xi_nodes, dxi = build_xi_lattice(rho, R_prime)
    n_est = len(xi_nodes) // 2 + 1  # nodes 0 .. n // 2; the rest are their antipodes
    azimuths = np.pi * np.arange(n_frames) / n_frames
    # one column per (xi, frame, member); the overflow guard is checked here,
    # at the largest |xi|, for every column
    zeta, eta, lead = build_zeta_eta(
        xi_nodes[:n_est, None], t, k, azimuths[None], box_radius(grid)
    )
    lead = lead[:, 0]
    solver = CgoRemainderSolver(k, medium, grid, tol, max_iter)
    flat = x.reshape(M, -1)

    sigma_hat = np.empty(n_est, dtype=np.complex128)
    stderr = np.empty(n_est)
    chunk = max(1, PRODUCT_COLUMNS // (2 * n_frames))  # xi per trace product
    for lo in range(0, n_est, chunk):
        ids = slice(lo, lo + chunk)
        z_cols = zeta[ids].reshape(-1, 3)
        e_cols = eta[ids].reshape(-1, 3)
        duals = np.empty((len(z_cols), mesh.n_nodes, 2), dtype=np.complex128)
        for b in range(0, len(z_cols), DUAL_BLOCK):
            zb, eb = z_cols[b : b + DUAL_BLOCK], e_cols[b : b + DUAL_BLOCK]
            # for m = 0 the CGO pair is the exact plane-wave pair
            W = None if solver.homogeneous else np.stack(
                [solver.solve(z, e).W for z, e in zip(zb, eb)]
            )
            test_data = cgo_on_sphere(zb, eb, W, grid, mesh)
            duals[b : b + len(zb)] = dual_functional_vector(capacity, *test_data)
        B = flat @ duals.reshape(len(z_cols), -1).T  # (M, n_sub * n_frames * 2)
        B = B.reshape(M, -1, n_frames, 2)
        prods = (B[..., 0] * B[..., 1]).mean(axis=2)  # frame average per realization
        mean = prods.mean(axis=0)
        sd = prods.std(axis=0, ddof=1) / np.sqrt(M) if M > 1 else np.full(len(mean), np.inf)
        sigma_hat[ids] = (-mean / k ** 2) / lead[ids]
        stderr[ids] = sd / (k ** 2 * np.abs(lead[ids]))

    sigma_hat = hermitian_symmetrize(xi_nodes, sigma_hat)
    stderr = hermitian_symmetrize(xi_nodes, stderr).real
    sigma_rec, residue = fourier_synthesis(xi_nodes, sigma_hat, dxi, grid)

    l2 = linf = rel = None
    if ground_truth is not None:
        gt = evaluate_on_grid(ground_truth, grid).values.real
        diff = sigma_rec.values.real - gt
        h3 = grid.cell_volume
        l2 = float(np.linalg.norm(diff) * np.sqrt(h3))
        linf = float(np.max(np.abs(diff)))
        gt_norm = np.linalg.norm(gt) * np.sqrt(h3)
        rel = float(l2 / gt_norm) if gt_norm > 0 else float("inf")

    return ReconstructionResult(
        xi_nodes=xi_nodes,
        dxi=dxi,
        rho=rho,
        t=t,
        epsilon=float(epsilon),
        sample_count=M,
        sigma_hat=sigma_hat,
        stderr=stderr,
        sigma_rec=sigma_rec,
        imag_residue=residue,
        l2_error=l2,
        linf_error=linf,
        rel_l2_error=rel,
    )


def stability_sweep(
    ensemble_factory,
    sigma: SourceStrength,
    capacity: CapacityOperator,
    k: float,
    R_prime: float,
    medium: MediumSpec,
    grid: Grid3,
    alphas,
    constants: StabilityConstants = StabilityConstants(),
    **recon_kwargs,
):
    """Scale sigma -> alpha sigma, take its ensemble from the factory, and tabulate
    the logarithmic-stability check quantity ||alpha sigma|| (-log eps)^{4s/(7+2s)}.

    `ensemble_factory(alpha)` must return the trace ensemble for the scaled
    source. Returns one row dict per alpha.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise ConfigurationError("alphas must be positive")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigurationError("alphas must be strictly decreasing")
    expo = 4.0 * constants.s / (7.0 + 2.0 * constants.s)
    rows = []
    for alpha in alphas:
        traces = _tangential_traces(ensemble_factory(alpha), capacity.basis.mesh)
        ke = measure_epsilon(traces, capacity)
        scaled = SourceStrength(
            tuple(replace(b, amplitude=b.amplitude * alpha) for b in sigma.bumps),
            sigma.ball_radius,
        )
        result = reconstruct_sigma(
            traces,
            capacity,
            k=k,
            R_prime=R_prime,
            medium=medium,
            grid=grid,
            constants=constants,
            epsilon=ke.epsilon,
            ground_truth=scaled,
            **recon_kwargs,
        )
        sig_l2 = evaluate_on_grid(scaled, grid).l2_norm()
        rows.append(
            {
                "alpha": alpha,
                "epsilon": ke.epsilon,
                "sigma_l2": sig_l2,
                "rel_l2_error": result.rel_l2_error,
                "check_quantity": sig_l2 * (-np.log(ke.epsilon)) ** expo,
            }
        )
    return rows

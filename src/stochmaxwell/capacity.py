"""Electromagnetic Dirichlet-to-Neumann (capacity) operator on the sphere and
the boundary functional pairing traces with homogeneous test solutions.

The per-degree multipliers are not transcribed from a closed form. Instead the
two radiating multipole families are evaluated analytically on the mesh and the
multiplier matrix is solved from the identity "apply to E x nu, obtain
H x nu" - so the eigen-identity holds by construction, independent of any
harmonic normalization convention.
"""
from __future__ import annotations

import numpy as np
from scipy import fft as sfft
from scipy.special import spherical_jn, spherical_yn

from .geometry import SphereMesh, integrate_sphere
from .sphharm import VshBasis, scalar_ylm

__all__ = [
    "spherical_h1",
    "radiating_multipole",
    "CapacityOperator",
    "boundary_functional",
]

# rows of one circulant application: bounds its work arrays to a few
# (ROW_BLOCK, 2N) blocks beside its input and output
ROW_BLOCK = 64


def spherical_h1(l: int, z: float | np.ndarray, derivative: bool = False):
    """Spherical Hankel function of the first kind (or its derivative),
    elementwise over z. Raises OverflowError if any value is not finite."""
    with np.errstate(invalid="ignore"):  # 1j * -inf; reported below
        val = spherical_jn(l, z, derivative) + 1j * spherical_yn(l, z, derivative)
    bad = ~np.isfinite(val)
    if np.any(bad):
        raise OverflowError(
            f"spherical Hankel overflow at l={l}, z={np.asarray(z)[bad][0]}; "
            "use a smaller degree cutoff"
        )
    return val


def radiating_multipole(kind: str, l: int, m: int, k: float, points: np.ndarray):
    """Radiating Maxwell multipole (E, H) evaluated at points (N, 3).

    kind 'te': E = curl(x u) with u = h_l(k r) Y_lm, purely tangential.
    kind 'tm': E = (1/k) curl of the 'te' field.
    In both cases H = curl(E) / (i k). Closed forms use h_l(kr) and the
    Riccati-Hankel derivative psi_l'(z) = h_l(z) + z h_l'(z).
    """
    pts = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(pts, axis=1)
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    y, ga = scalar_ylm(l, m, theta, phi)
    st = np.sin(theta)
    ct, cp, sp = np.cos(theta), np.cos(phi), np.sin(phi)
    rhat = np.stack([st * cp, st * sp, ct], axis=1)
    that = np.stack([ct * cp, ct * sp, -st], axis=1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    # surface gradient and its normal rotation (unit sphere scaling)
    gb = 1j * m * y / st
    grad_s = ga[:, None] * that + gb[:, None] * phat
    rot_s = ga[:, None] * phat - gb[:, None] * that

    z = k * r
    h = spherical_h1(l, z)
    psi_p = h + z * spherical_h1(l, z, derivative=True)

    M = -h[:, None] * rot_s
    N = (l * (l + 1) * h / z)[:, None] * y[:, None] * rhat + (psi_p / z)[:, None] * grad_s
    if kind == "te":
        return M, -1j * N
    if kind == "tm":
        return N, -1j * M
    raise ValueError("kind must be 'te' or 'tm'")


class CapacityOperator:
    """Maps E x nu to H x nu on the mesh sphere for radiating exterior fields.

    Immutable after construction; `apply` is reentrant. Every mode of degree l
    carries the same 2x2 complex matrix acting on its (grad, curl) coefficient
    pair, held as one (2, 2, K) block array over the modes. A `fault_scale`
    != 1 deliberately corrupts the operator and exists only as a negative
    control for verification runs.

    The operator commutes with the rotation of the mesh by one azimuthal
    step, which maps node (i, j) (polar index i, azimuthal index j) to
    (i, j + 1) and carries its (theta_hat, phi_hat) frame along. On frame
    components it is therefore a circular convolution over j: `apply_frame`
    applies it as one (2 n_theta)^2 block per azimuthal frequency, built once
    from its action on the frame vectors of the meridian j = 0.
    """

    def __init__(self, k: float, basis: VshBasis, fault_scale: float = 1.0):
        if k <= 0:
            raise ValueError("wavenumber must be positive")
        self.k = float(k)
        self.basis = basis
        mesh = basis.mesh
        self._blocks = np.empty((2, 2, basis.n_modes), dtype=np.complex128)
        for l in range(1, basis.lmax + 1):
            idx = basis.mode_index(l, 0)
            cols_in = np.empty((2, 2), dtype=np.complex128)
            cols_out = np.empty((2, 2), dtype=np.complex128)
            for j, kind in enumerate(("te", "tm")):
                E, H = radiating_multipole(kind, l, 0, k, mesh.nodes)
                ce = basis.decompose(mesh.to_frame(np.cross(E, mesh.normals)))
                ch = basis.decompose(mesh.to_frame(np.cross(H, mesh.normals)))
                cols_in[:, j] = ce[[idx, basis.n_modes + idx]]
                cols_out[:, j] = ch[[idx, basis.n_modes + idx]]
            # modes of degree l are m = -l..l, contiguous around m = 0
            multiplier = fault_scale * cols_out @ np.linalg.inv(cols_in)
            self._blocks[:, :, idx - l : idx + l + 1] = multiplier[:, :, None]
        nt, nphi = mesh.n_theta, mesh.n_phi
        meridian = np.zeros((nt, 2, nt, nphi, 2), dtype=np.complex128)
        for i in range(nt):
            meridian[i, :, i, 0, :] = np.eye(2)
        cols = basis.synthesize(self.apply_coeffs(basis.decompose(meridian.reshape(2 * nt, -1, 2))))
        spectrum = sfft.fft(cols.reshape(nt, 2, nt, nphi, 2), axis=3)  # [i, s, i', m, t]
        # [m, (i', t), (i, s)]: frequency m of the response to the unit at node (i, 0), component s
        self._symbol = spectrum.transpose(3, 2, 4, 0, 1).reshape(nphi, 2 * nt, 2 * nt)
        # C^T is the convolution with S_{-m}^T
        self._symbol_t = self._symbol[-np.arange(nphi) % nphi].transpose(0, 2, 1)

    def apply_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Per-mode multiplier action on stacked (grad, curl) coefficients (..., 2K)."""
        A, K = self._blocks, self.basis.n_modes
        a, b = coeffs[..., :K], coeffs[..., K:]
        return np.concatenate([A[0, 0] * a + A[0, 1] * b, A[1, 0] * a + A[1, 1] * b], axis=-1)

    def apply_frame(self, comps: np.ndarray) -> np.ndarray:
        """Apply to tangential samples given by their frame components
        (..., N, 2) on the operator's mesh; returns frame components."""
        return self._convolve(comps, self._symbol)

    def apply_frame_transpose(self, comps: np.ndarray) -> np.ndarray:
        """Transpose (non-conjugate) of `apply_frame` on frame components
        (..., N, 2): the same convolution with each block transposed and its
        frequency reflected, S_{-m}^T."""
        return self._convolve(comps, self._symbol_t)

    def _convolve(self, comps: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Circular convolution over the azimuthal index by `symbol`, one block per frequency."""
        mesh = self.basis.mesh
        nt, nphi = mesh.n_theta, mesh.n_phi
        if comps.shape[-2:] != (mesh.n_nodes, 2):
            raise ValueError("frame samples do not match the mesh")
        rows = comps.reshape(-1, nt, nphi, 2)
        out = np.empty(rows.shape, dtype=np.complex128)
        for lo in range(0, len(rows), ROW_BLOCK):
            x = sfft.fft(rows[lo : lo + ROW_BLOCK], axis=2)  # [r, i, m, s]
            y = symbol @ x.transpose(2, 1, 3, 0).reshape(nphi, 2 * nt, -1)
            y = sfft.ifft(y.reshape(nphi, nt, 2, -1), axis=0, overwrite_x=True)  # [j', i', t, r]
            out[lo : lo + ROW_BLOCK] = y.transpose(3, 1, 0, 2)
        return out.reshape(comps.shape)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Apply to tangential samples (..., N, 3) on the operator's mesh."""
        mesh = self.basis.mesh
        if samples.shape[-2] != mesh.n_nodes:
            raise ValueError("sample count does not match mesh")
        return mesh.from_frame(self.apply_frame(mesh.to_frame(samples)))


def boundary_functional(
    trace: np.ndarray,
    tm_trace: np.ndarray,
    u_samples: np.ndarray,
    curlu_samples: np.ndarray,
    k: float,
    mesh: SphereMesh,
) -> complex:
    """Surface functional equal to the volume pairing of the source with U.

    For E radiating with source f inside the sphere and U solving the
    homogeneous equation, integration by parts twice gives

        int_{B_R} f . U dx
            = - int_{dB_R} [ i k T(E x nu) . U + (E x nu) . (curl U) ] ds,

    and this function returns the right-hand side (the overall sign is fixed
    against the direct volume quadrature, see the deterministic tests).
    Linear in the trace pair.
    """
    for arr in (trace, tm_trace, u_samples, curlu_samples):
        if np.asarray(arr).shape != (mesh.n_nodes, 3):
            raise ValueError("all boundary samples must have shape (n_nodes, 3)")
    integrand = 1j * k * np.sum(tm_trace * u_samples, axis=1) + np.sum(
        trace * curlu_samples, axis=1
    )
    return -integrate_sphere(integrand, mesh)

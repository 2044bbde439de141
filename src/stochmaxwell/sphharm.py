"""Scalar and tangential vector spherical harmonics on a SphereMesh.

The two tangential families are the surface-gradient harmonics and their
rotations by the unit normal. Both are orthonormal with respect to the
surface measure of the mesh sphere (radius R), so every coefficient contract
in this package is stated in that normalization.
"""
from __future__ import annotations

import numpy as np
from scipy.special import sph_harm_y

from .geometry import SphereMesh

__all__ = ["VshBasis", "scalar_ylm_table"]


def scalar_ylm_table(lmax: int, theta: np.ndarray, phi: np.ndarray):
    """Orthonormal (unit-sphere) Y_lm and their theta-derivatives at the nodes.

    Returns two dicts keyed by (l, m) with 0 <= l <= lmax, |m| <= l.
    dtheta is computed with the stable ladder recurrence
    dY_lm/dtheta = m*cot(theta)*Y_lm + sqrt((l-m)(l+m+1)) e^{-i phi} Y_{l,m+1}.
    """
    Y = {}
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            Y[(l, m)] = sph_harm_y(l, m, theta, phi)
    cot = np.cos(theta) / np.sin(theta)
    emphi = np.exp(-1j * phi)
    dY = {}
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            val = m * cot * Y[(l, m)]
            if m < l:
                val = val + np.sqrt((l - m) * (l + m + 1)) * emphi * Y[(l, m + 1)]
            dY[(l, m)] = val
    return Y, dY


class VshBasis:
    """Tangential vector spherical harmonic basis tabulated on one mesh.

    Mode order: l = 1..lmax, m = -l..l; the coefficient vector of a tangential
    field stacks the gradient-family coefficients first, then the
    normal-rotated family, each of length lmax*(lmax+2).
    """

    def __init__(self, mesh: SphereMesh, lmax: int | None = None):
        lmax = mesh.lmax if lmax is None else int(lmax)
        if lmax > mesh.lmax:
            raise ValueError(
                f"lmax={lmax} exceeds mesh quadrature exactness (lmax={mesh.lmax})"
            )
        self.mesh = mesh
        self.lmax = lmax
        self.modes = [(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]
        self.n_modes = len(self.modes)

        Y, dY = scalar_ylm_table(lmax, mesh.theta, mesh.phi)
        inv_sin = 1.0 / np.sin(mesh.theta)
        R = mesh.radius

        # the (2K, N, 3) stack used by decompose/synthesize; the families are its halves
        self._stack = np.empty((2 * self.n_modes, mesh.n_nodes, 3), dtype=np.complex128)
        grad, curl = self._stack[: self.n_modes], self._stack[self.n_modes :]
        for idx, (l, m) in enumerate(self.modes):
            norm = 1.0 / (R * np.sqrt(l * (l + 1)))
            a = dY[(l, m)] * norm                 # theta component of grad family
            b = 1j * m * Y[(l, m)] * inv_sin * norm  # phi component
            grad[idx] = a[:, None] * mesh.theta_hat + b[:, None] * mesh.phi_hat
            # nu x grad: theta_hat -> phi_hat, phi_hat -> -theta_hat
            curl[idx] = a[:, None] * mesh.phi_hat - b[:, None] * mesh.theta_hat
        self._stack_w = np.conj(self._stack) * mesh.weights[None, :, None]

    def mode_index(self, l: int, m: int) -> int:
        return self.modes.index((l, m))

    def decompose(self, samples: np.ndarray) -> np.ndarray:
        """Coefficients of tangential samples (..., N, 3) -> (..., 2K)."""
        if samples.shape[-2] != self.mesh.n_nodes:
            raise ValueError("sample count does not match mesh")
        return np.tensordot(samples, self._stack_w, axes=([-2, -1], [1, 2]))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Tangential field (..., N, 3) from coefficients (..., 2K)."""
        if coeffs.shape[-1] != 2 * self.n_modes:
            raise ValueError("coefficient vector has wrong length")
        return np.tensordot(coeffs, self._stack, axes=([-1], [0]))


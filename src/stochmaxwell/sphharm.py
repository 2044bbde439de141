"""Scalar and tangential vector spherical harmonics on a SphereMesh.

The two tangential families are the surface-gradient harmonics and their
rotations by the unit normal. Both are orthonormal with respect to the
surface measure of the mesh sphere (radius R), so every coefficient contract
in this package is stated in that normalization. The basis is tabulated by
its components in the (theta_hat, phi_hat) frame of each node, and analysis
and synthesis take and give such frame components, 2N numbers for N nodes
(`SphereMesh.to_frame` and `from_frame` convert Cartesian samples). A
basis tabulates its modes once, when it is built, and holds the tables for
its life. Only the capacity build analyses and synthesizes: the capacity
operator builds a basis, reads its per-degree multipliers and azimuthal
symbols through it and drops it, and its applications and the dual vectors
run as azimuthal convolutions on frame components.
"""
from __future__ import annotations

import numpy as np
from scipy.special import sph_harm_y

from .geometry import SphereMesh

__all__ = ["VshBasis", "scalar_ylm"]


def _dtheta(l, m, y, y_next, theta, phi):
    """dY_lm/dtheta by the stable ladder recurrence from Y_lm and Y_l,m+1 (zero
    for m = l): m cot(theta) Y_lm + sqrt((l-m)(l+m+1)) e^{-i phi} Y_l,m+1."""
    cot, emphi = np.cos(theta) / np.sin(theta), np.exp(-1j * phi)
    return m * cot * y + np.sqrt((l - m) * (l + m + 1)) * emphi * y_next


def scalar_ylm(l, m, theta: np.ndarray, phi: np.ndarray):
    """Orthonormal (unit-sphere) Y_lm and dY_lm/dtheta (`_dtheta`) at the nodes;
    degrees and orders may be arrays broadcast against the nodes."""
    y = sph_harm_y(l, m, theta, phi)
    return y, _dtheta(l, m, y, sph_harm_y(l, m + 1, theta, phi), theta, phi)


class VshBasis:
    """Tangential vector spherical harmonic basis tabulated on one mesh.

    Mode order: l = 1..lmax, m = -l..l, lmax the mesh's; the coefficient
    vector of a tangential field stacks the gradient-family coefficients
    first, then the normal-rotated family, each of length lmax*(lmax+2).
    """

    def __init__(self, mesh: SphereMesh):
        self.mesh = mesh
        lmax = mesh.lmax
        self.modes = [(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]
        self.n_modes = len(self.modes)

        # frame components (theta_hat, phi_hat) of every mode, (2K, N, 2), the
        # families its halves; decompose reads its conjugate times the weights
        l, m = np.array(self.modes).T[:, :, None]
        Y = sph_harm_y(l, m, mesh.theta, mesh.phi)  # Y_l,m+1 is the next row, or 0 at m = l
        dY = _dtheta(l, m, Y, np.where(m < l, np.roll(Y, -1, axis=0), 0), mesh.theta, mesh.phi)
        inv_sin = 1.0 / np.sin(mesh.theta)
        norm = 1.0 / (mesh.radius * np.sqrt(l * (l + 1)))
        a = dY * norm                 # theta component of grad family
        b = 1j * m * Y * inv_sin * norm  # phi component
        # nu x grad: theta_hat -> phi_hat, phi_hat -> -theta_hat
        stack = np.concatenate([np.stack([a, b], axis=-1), np.stack([-b, a], axis=-1)])
        self._stack, self._stack_w = stack, np.conj(stack) * mesh.weights[None, :, None]

    def mode_index(self, l: int, m: int) -> int:
        return self.modes.index((l, m))

    def decompose(self, comps: np.ndarray) -> np.ndarray:
        """Coefficients (..., 2K) of tangential samples given by their frame
        components (..., N, 2)."""
        if comps.shape[-2:] != (self.mesh.n_nodes, 2):
            raise ValueError("frame samples do not match the mesh")
        return np.tensordot(comps, self._stack_w, axes=([-2, -1], [1, 2]))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Frame components (..., N, 2) of the tangential field with
        coefficients (..., 2K)."""
        if coeffs.shape[-1] != 2 * self.n_modes:
            raise ValueError("coefficient vector has wrong length")
        return np.tensordot(coeffs, self._stack, axes=([-1], [0]))

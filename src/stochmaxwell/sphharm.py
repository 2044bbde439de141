"""Scalar and tangential vector spherical harmonics on a SphereMesh.

The two tangential families are the surface-gradient harmonics and their
rotations by the unit normal. Both are orthonormal with respect to the
surface measure of the mesh sphere (radius R), so every coefficient contract
in this package is stated in that normalization. The basis is tabulated by
its components in the (theta_hat, phi_hat) frame of each node, and analysis
and synthesis take and give such frame components, 2N numbers for N nodes
(`SphereMesh.to_frame` and `from_frame` convert Cartesian samples). Only
the capacity build analyses and synthesizes; the capacity applications and
the dual vectors run as azimuthal convolutions on frame components.
"""
from __future__ import annotations

import numpy as np
from scipy.special import sph_harm_y

from .geometry import SphereMesh

__all__ = ["VshBasis", "scalar_ylm", "scalar_ylm_table"]


def _dtheta(l: int, m: int, y, y_next, cot, emphi):
    """dY_lm/dtheta by the stable ladder recurrence, from Y_lm and Y_l,m+1
    (unused when m = l)."""
    val = m * cot * y
    if m < l:
        val = val + np.sqrt((l - m) * (l + m + 1)) * emphi * y_next
    return val


def scalar_ylm(l: int, m: int, theta: np.ndarray, phi: np.ndarray):
    """Orthonormal (unit-sphere) Y_lm and its theta-derivative at the nodes,
    from Y_lm and Y_l,m+1 alone; equal bit for bit to the entries of
    `scalar_ylm_table`."""
    y = sph_harm_y(l, m, theta, phi)
    y_next = sph_harm_y(l, m + 1, theta, phi) if m < l else None
    return y, _dtheta(l, m, y, y_next, np.cos(theta) / np.sin(theta), np.exp(-1j * phi))


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
    dY = {(l, m): _dtheta(l, m, y, Y.get((l, m + 1)), cot, emphi) for (l, m), y in Y.items()}
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

        # the (2K, N, 2) stack of frame components (theta_hat, phi_hat) used by
        # decompose/synthesize; the families are its halves
        self._stack = np.empty((2 * self.n_modes, mesh.n_nodes, 2), dtype=np.complex128)
        grad, curl = self._stack[: self.n_modes], self._stack[self.n_modes :]
        for idx, (l, m) in enumerate(self.modes):
            norm = 1.0 / (R * np.sqrt(l * (l + 1)))
            a = dY[(l, m)] * norm                 # theta component of grad family
            b = 1j * m * Y[(l, m)] * inv_sin * norm  # phi component
            grad[idx, :, 0], grad[idx, :, 1] = a, b
            # nu x grad: theta_hat -> phi_hat, phi_hat -> -theta_hat
            curl[idx, :, 0], curl[idx, :, 1] = -b, a
        self._stack_w = np.conj(self._stack) * mesh.weights[None, :, None]

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

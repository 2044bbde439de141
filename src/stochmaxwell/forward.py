"""White-noise current sampling and the volume-integral Maxwell solver.

The inhomogeneous-medium problem is solved in Lippmann-Schwinger form

    E = R0(k)(source) - k^2 R0(k)(m E),

by Neumann iteration with an automatic switch to restarted GMRES when the
contrast is too strong for the fixed point to contract. The radiation
condition is inherited from the outgoing convolution kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .geometry import (
    Grid3,
    MediumSpec,
    SphereMesh,
    VectorFieldC3,
    evaluate_on_grid,
    trilinear_interpolate,
)
from .greens import FreeConvolver, _green_coeffs

__all__ = [
    "ForwardSolution",
    "SolverError",
    "noise_amplitude",
    "noise_values",
    "neumann_solve",
    "MaxwellSolver",
    "extract_trace",
    "HomogeneousTraceMap",
]

NOISE_STREAM_TAG = 0x57484E53  # stream tag for white-noise draws in the seed law
_NODE_BLOCK = 16  # mesh nodes per block of the trace-map build


class SolverError(RuntimeError):
    """Iteration failed to converge; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


@dataclass(frozen=True)
class ForwardSolution:
    field: VectorFieldC3
    iterations: int  # Neumann iterations plus GMRES inner iterations
    residual: float
    trace: np.ndarray | None = None  # (n_nodes, 3) E x nu on the mesh


def noise_amplitude(sigma_grid: np.ndarray, spacing: float) -> np.ndarray:
    """Per-cell standard deviation sqrt(sigma)/h^{3/2} of each current
    component (negative sigma counts as 0)."""
    return np.sqrt(np.maximum(np.asarray(sigma_grid).real, 0.0)) / spacing ** 1.5


def noise_values(amplitude: np.ndarray, master_seed: int, index: int, support=None) -> np.ndarray:
    """Raw J samples: three independent real Gaussians per grid cell, scaled
    by `amplitude` (see `noise_amplitude`); shape (3,) + grid dims.
    Bit-identical regeneration from (master_seed, index).

    With a boolean grid mask `support`, only its C cells are scaled and
    returned, shape (3, C), and `amplitude` holds their C values. The draw
    covers the whole grid either way, so the samples of a cell do not depend
    on the mask.
    """
    grid_shape = np.shape(amplitude) if support is None else support.shape
    rng = np.random.default_rng([int(master_seed), int(index), NOISE_STREAM_TAG])
    xi = rng.standard_normal((3,) + grid_shape)
    return xi * amplitude if support is None else xi[:, support] * amplitude


def neumann_solve(apply, b: np.ndarray, tol: float, max_iter: int):
    """Neumann iteration x <- b - (A x - x) for A x = b, with A = `apply`.

    Stops when the relative residual ||A x - b|| / ||b|| reaches tol or stops
    contracting (above 0.9 times the previous one), and returns the current
    iterate with the iteration count, the residual and the residual history;
    the caller decides what a stagnated or unconverged iterate means.
    """
    bnorm = np.linalg.norm(b)
    x = b.copy()
    history = []
    for it in range(1, max_iter + 1):
        Ax = apply(x)
        res = np.linalg.norm(Ax - b) / bnorm
        history.append(res)
        if res <= tol or (it > 1 and res > 0.9 * history[-2]):
            return x, it, res, history
        x = b - (Ax - x)  # x <- b - K x, reusing Ax = x + K x
    return x, max_iter, res, history


class MaxwellSolver:
    """Reusable solver: the kernel transforms are computed once per (k, grid)
    and shared read-only by every solve."""

    def __init__(self, k: float, medium: MediumSpec, grid: Grid3):
        self.k = float(k)
        self.grid = grid
        self.medium = medium
        self.convolver = FreeConvolver(self.k, grid)
        self.m_grid = evaluate_on_grid(medium, grid).values.real
        self.homogeneous = not np.any(self.m_grid)

    def _apply_ls(self, E: np.ndarray) -> np.ndarray:
        """(I + k^2 R0 M) E with R0 the true resolvent (curl curl - k^2)^{-1}."""
        return E + self.k ** 2 * self.convolver.apply_resolvent_array(
            self.m_grid[None] * E
        )

    def solve(
        self,
        source: VectorFieldC3,
        tol: float = 1e-10,
        max_iter: int = 60,
        mesh: SphereMesh | None = None,
    ) -> ForwardSolution:
        if source.grid != self.grid:
            raise ValueError("source grid does not match solver grid")
        b = self.convolver.apply_resolvent_array(source.values)
        bnorm = np.linalg.norm(b)
        if self.homogeneous or bnorm == 0.0:
            E, iters, res = b, 1, 0.0
        else:
            E, iters, res, history = neumann_solve(self._apply_ls, b, tol, max_iter)
            if res > tol:  # stagnation: hand off to GMRES
                E, iters, res = self._gmres(b, bnorm, tol, max_iter, E, history)
            if res > tol:
                raise SolverError(
                    f"Maxwell solve stagnated at residual {res:.3e} (tol {tol:.1e})",
                    history,
                )
        field = VectorFieldC3(self.grid, E)
        trace = extract_trace(field, mesh) if mesh is not None else None
        return ForwardSolution(field=field, iterations=iters, residual=res, trace=trace)

    def _gmres(self, b, bnorm, tol, max_iter, x0, history):
        shape = b.shape

        def mv(v):
            return self._apply_ls(v.reshape(shape)).ravel()

        n = b.size
        A = LinearOperator((n, n), matvec=mv, dtype=np.complex128)
        inner = []  # one residual estimate per GMRES inner iteration
        sol, info = gmres(
            A,
            b.ravel(),
            x0=x0.ravel(),
            rtol=tol,
            atol=0.0,
            restart=30,
            maxiter=max_iter,
            callback=inner.append,
            callback_type="pr_norm",
        )
        E = sol.reshape(shape)
        iters = len(history) + len(inner)
        res = np.linalg.norm(self._apply_ls(E) - b) / bnorm
        history.append(res)
        return E, iters, res


def extract_trace(E: VectorFieldC3, mesh: SphereMesh) -> np.ndarray:
    """Tangential trace E x nu at the mesh nodes, (N, 3), with E interpolated
    trilinearly."""
    if not E.grid.contains_ball(mesh.radius):
        raise ValueError("measurement sphere is not inside the grid box")
    Ev = trilinear_interpolate(E.values, E.grid, mesh.nodes).T  # (N, 3)
    return np.cross(Ev, mesh.normals)


def _diff4(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order central difference along a grid axis (wrap layers are trimmed
    by the caller's interior collar)."""
    return (
        8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
        - (np.roll(f, -2, axis) - np.roll(f, 2, axis))
    ) / (12.0 * h)


def curl_grid(F: np.ndarray, h: float) -> np.ndarray:
    """Curl of (..., 3, nx, ny, nz) samples with compact 4th-order stencils."""
    dF = [[_diff4(F[..., c, :, :, :], ax, h) for ax in (-3, -2, -1)] for c in range(3)]
    return np.stack(
        [
            dF[2][1] - dF[1][2],
            dF[0][2] - dF[2][0],
            dF[1][0] - dF[0][1],
        ],
        axis=-4,
    )


class HomogeneousTraceMap:
    """Linear map from current samples on the source support to the boundary
    trace, for the homogeneous medium where E = R0(k)(i k J) is an exact
    superposition of Green-tensor columns: direct summation, with no FFT and
    no interpolation, which makes large Monte Carlo ensembles cheap.

    The map is one C-contiguous complex (3C, 3N) array, 3C * 3N * 16 bytes
    for C support cells and N mesh nodes: row 3c + j takes component j of the
    current in cell c, column 3n + i gives component i of the trace E x nu at
    node n. The tangential cross product is folded into the map, and each
    entry carries the h^3 cell weight; the ik source factor cancels the
    1/(ik) of R0 = G/(ik). The build fills it in blocks of _NODE_BLOCK mesh
    nodes, writing G = a I + b d d^T straight into its final layout, so the
    build needs the map plus one block of temporaries.

    `traces` applies the map to a real current as one real matrix product
    with the map viewed as a real (3C, 6N) array, whose result, viewed as
    complex, is the trace; a complex current takes two such products, one
    for its real part and one for its imaginary part.
    """

    def __init__(self, k: float, grid: Grid3, support_mask: np.ndarray, mesh: SphereMesh):
        self.k = float(k)
        self.grid = grid
        self.mesh = mesh
        self.support_mask = np.asarray(support_mask, dtype=bool)
        coords = grid.nodes()[:, self.support_mask].T  # (C, 3)
        self.n_cells = C = coords.shape[0]
        N = mesh.n_nodes
        self._flat = np.empty((3 * C, 3 * N), dtype=np.complex128)
        out = self._flat.reshape(C, 3, N, 3)  # [c, j, n, i]
        for lo in range(0, N, _NODE_BLOCK):
            nu = mesh.normals[lo : lo + _NODE_BLOCK]
            d = mesh.nodes[lo : lo + _NODE_BLOCK][None, :, :] - coords[:, None, :]  # (C, B, 3)
            a, b = _green_coeffs(self.k, np.linalg.norm(d, axis=2))
            # E x nu = -[nu]_x E, and [nu]_x (a I + b d d^T) =
            # a [nu]_x + b (nu x d) d^T
            nu_x = np.cross(nu[:, None, :], np.eye(3)[None])  # [n, j, i] = (nu_n x e_j)_i
            nu_d = np.cross(nu[None], d)  # (C, B, 3)
            out[:, :, lo : lo + _NODE_BLOCK, :] = -grid.cell_volume * (
                a[:, None, :, None] * nu_x.transpose(1, 0, 2)[None]
                + b[:, None, :, None] * d.transpose(0, 2, 1)[..., None] * nu_d[:, None]
            )

    def traces(self, J_support: np.ndarray) -> np.ndarray:
        """Boundary traces E x nu for a batch of currents restricted to the
        support.

        J_support: (M, C, 3) real or complex -> traces (M, N, 3).
        """
        J = np.asarray(J_support)
        Jb = J.reshape(J.shape[0], -1)
        W = self._flat.view(np.float64)  # (3C, 6N): re/im interleaved per column
        if np.iscomplexobj(Jb):
            T = (Jb.real @ W).view(np.complex128) + 1j * (Jb.imag @ W).view(np.complex128)
        else:
            T = (Jb @ W).view(np.complex128)
        return T.reshape(J.shape[0], self.mesh.n_nodes, 3)

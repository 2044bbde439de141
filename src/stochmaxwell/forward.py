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
from .greens import FreeConvolver

__all__ = [
    "TangentialTrace",
    "ForwardSolution",
    "SolverError",
    "noise_values",
    "neumann_solve",
    "MaxwellSolver",
    "extract_trace",
    "pde_residual",
    "HomogeneousTraceMap",
]

NOISE_STREAM_TAG = 0x57484E53  # stream tag for white-noise draws in the seed law


class SolverError(RuntimeError):
    """Iteration failed to converge; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


@dataclass(frozen=True)
class TangentialTrace:
    """Complex tangential vectors on a sphere mesh, pointwise orthogonal to nu."""

    mesh: SphereMesh
    values: np.ndarray  # (n_nodes, 3)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.shape != (self.mesh.n_nodes, 3):
            raise ValueError("trace shape does not match mesh")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ForwardSolution:
    field: VectorFieldC3
    iterations: int
    residual: float
    trace: TangentialTrace | None = None


def noise_values(sigma_grid: np.ndarray, spacing: float, master_seed: int, index: int) -> np.ndarray:
    """Raw J samples: three independent real Gaussians per cell, scaled by
    sqrt(sigma)/h^{3/2}. Bit-identical regeneration from (master_seed, index)."""
    rng = np.random.default_rng([int(master_seed), int(index), NOISE_STREAM_TAG])
    xi = rng.standard_normal((3,) + sigma_grid.shape)
    amp = np.sqrt(np.maximum(sigma_grid.real, 0.0)) / spacing ** 1.5
    return xi * amp[None]


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
    """Reusable solver: the kernel transform is precomputed once per (k, grid)
    and shared read-only; each solve owns its workspaces, so concurrent solves
    on one instance are safe."""

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
        sol, info = gmres(
            A,
            b.ravel(),
            x0=x0.ravel(),
            rtol=tol,
            atol=0.0,
            restart=30,
            maxiter=max_iter,
        )
        E = sol.reshape(shape)
        res = np.linalg.norm(self._apply_ls(E) - b) / bnorm
        history.append(res)
        iters = len(history)
        return E, iters, res


def extract_trace(E: VectorFieldC3, mesh: SphereMesh) -> TangentialTrace:
    """Tangential trace E x nu on the mesh, with E interpolated trilinearly."""
    if not E.grid.contains_ball(mesh.radius):
        raise ValueError("measurement sphere is not inside the grid box")
    Ev = trilinear_interpolate(E.values, E.grid, mesh.nodes).T  # (N, 3)
    return TangentialTrace(mesh, np.cross(Ev, mesh.normals))


def _diff4(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order central difference along a grid axis (wrap layers are trimmed
    by the caller's interior collar)."""
    return (
        8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
        - (np.roll(f, -2, axis) - np.roll(f, 2, axis))
    ) / (12.0 * h)


def curl_grid(F: np.ndarray, h: float) -> np.ndarray:
    """Curl of (3, nx, ny, nz) samples with compact 4th-order stencils."""
    dF = [[_diff4(F[c], ax, h) for ax in range(3)] for c in range(3)]
    return np.stack(
        [
            dF[2][1] - dF[1][2],
            dF[0][2] - dF[2][0],
            dF[1][0] - dF[0][1],
        ]
    )


def pde_residual(
    E: VectorFieldC3,
    k: float,
    medium: MediumSpec,
    source: VectorFieldC3,
    collar_cells: int = 5,
) -> float:
    """Relative interior residual of curl curl E - k^2 n E = source.

    Curls use compact 4th-order stencils; the outer collar (where the stencil
    wraps and the box truncates the radiating field) is excluded. Normalized
    by ||source|| when the source is nonzero, else by ||E||.
    """
    h = E.grid.spacing
    cc = curl_grid(curl_grid(E.values, h), h)
    n_grid = 1.0 - evaluate_on_grid(medium, E.grid).values.real
    res = cc - k ** 2 * n_grid[None] * E.values - source.values
    c = collar_cells
    sl = (slice(None), slice(c, -c), slice(c, -c), slice(c, -c))
    num = np.linalg.norm(res[sl])
    den = np.linalg.norm(source.values)
    if den == 0.0:
        den = np.linalg.norm(E.values[sl])
    return float(num / den) if den > 0 else 0.0


class HomogeneousTraceMap:
    """Linear map from current samples on the source support to the boundary
    trace, for the homogeneous medium where E = R0(k)(i k J) is an exact
    superposition of Green-tensor columns.

    This is the direct-summation route (no FFT, no interpolation); it matches
    the convolution solver within quadrature tolerance and makes large
    Monte Carlo ensembles cheap. Consistency of the two routes is asserted in
    the test suite.
    """

    def __init__(self, k: float, grid: Grid3, support_mask: np.ndarray, mesh: SphereMesh):
        self.k = float(k)
        self.grid = grid
        self.mesh = mesh
        self.support_mask = np.asarray(support_mask, dtype=bool)
        coords = grid.nodes()[:, self.support_mask].T  # (C, 3)
        self.n_cells = coords.shape[0]
        h3 = grid.cell_volume
        N = mesh.n_nodes
        # G[n, i, c, j] = ik * G_ij(x_n, y_c) * h^3, assembled in blocks
        T = np.empty((N, 3, self.n_cells, 3), dtype=np.complex128)
        d = mesh.nodes[:, None, :] - coords[None, :, :]
        r = np.linalg.norm(d, axis=2)
        rhat = d / r[:, :, None]
        g = np.exp(1j * k * r) / (4.0 * np.pi * r)
        a = 1j * k - 1.0 / r
        gp = g * a
        gpp = g * (a * a + 1.0 / r ** 2)
        P = rhat[:, :, :, None] * rhat[:, :, None, :]
        eye = np.eye(3)[None, None]
        Gt = 1j * k * g[:, :, None, None] * eye + (1j / k) * (
            gpp[:, :, None, None] * P + (gp / r)[:, :, None, None] * (eye - P)
        )
        # E = R0(k)(i k J) = G * J, so each column carries only the h^3 weight
        T[:] = h3 * np.transpose(Gt, (0, 2, 1, 3))
        # fold the cross product with nu into the map: trace = (E x nu)
        self._flat = T.reshape(N, 3, 3 * self.n_cells)

    def traces(self, J_support: np.ndarray) -> np.ndarray:
        """Boundary traces for a batch of currents restricted to the support.

        J_support: (M, C, 3) real or complex -> traces (M, N, 3).
        """
        Jb = np.asarray(J_support).reshape(J_support.shape[0], -1)
        E = np.tensordot(Jb, self._flat, axes=(1, 2))  # (M, N, 3)
        return np.cross(E, self.mesh.normals[None])

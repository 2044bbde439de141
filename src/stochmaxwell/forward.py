"""White-noise current sampling, the volume-integral Maxwell solver and the
boundary trace map.

The inhomogeneous-medium problem is solved in Lippmann-Schwinger form

    E = R0(k)(source) - k^2 R0(k)(m E),

by `solve_fixed_point`, the solver of every contrast system (the CGO
remainder too): Neumann iteration, handed off to restarted GMRES when the
fixed point does not contract. The radiation condition is inherited from
the outgoing convolution kernel.

Ensembles go through `HomogeneousTraceMap`, the current-to-trace map of any
medium; the full-grid `MaxwellSolver.solve` with `extract_trace` is the
reference it is checked against.
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
    "solve_fixed_point",
    "MaxwellSolver",
    "extract_trace",
    "HomogeneousTraceMap",
]

NOISE_STREAM_TAG = 0x57484E53  # stream tag for white-noise draws in the seed law
_NODE_BLOCK = 16  # mesh nodes per block of the trace-map build
_SCATTER_BYTES = 1 << 25  # padded transforms per node block of the scattered term


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
    if support is not None:  # np.take on flat indices gathers faster than a boolean mask
        xi = np.take(xi.reshape(3, -1), np.flatnonzero(support), axis=1)
    return xi * amplitude


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


def solve_fixed_point(apply, b: np.ndarray, tol: float, max_iter: int, what: str):
    """Solve A x = b, A = `apply` = I + K, to the relative residual
    ||A x - b|| / ||b|| <= tol, taken over all of b whatever its shape:
    `neumann_solve`, then, where its iterate misses tol, restarted GMRES(30)
    from that iterate, at most max_iter restarts.

    Returns (x, iterations, residual), the iterations counting the GMRES
    inner ones; x = b for b = 0. Raises SolverError, with the residual
    history and a message naming `what`, when the residual misses tol.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return b, 1, 0.0
    x, iters, res, history = neumann_solve(apply, b, tol, max_iter)
    if res > tol:  # stagnation or too few iterations: hand off to GMRES
        A = LinearOperator((b.size, b.size), matvec=lambda v: apply(v.reshape(b.shape)).ravel(),
                           dtype=np.complex128)
        inner = []  # one residual estimate per GMRES inner iteration
        sol, _ = gmres(
            A, b.ravel(), x0=x.ravel(), rtol=tol, atol=0.0, restart=30,
            maxiter=max_iter, callback=inner.append, callback_type="pr_norm",
        )
        x = sol.reshape(b.shape)
        iters += len(inner)
        res = np.linalg.norm(apply(x) - b) / bnorm
        history.append(res)
    if res > tol:
        raise SolverError(
            f"{what} stopped at residual {res:.3e} (tol {tol:.1e}) after {iters} iterations",
            history,
        )
    return x, iters, res


class MaxwellSolver:
    """Reusable solver: the kernel transforms are computed once per (k, grid)
    and shared read-only by every solve."""

    def __init__(self, k: float, medium: MediumSpec, grid: Grid3):
        self.k = float(k)
        self.grid = grid
        self.convolver = FreeConvolver(self.k, grid)
        self.m_grid = evaluate_on_grid(medium, grid).values.real

    def _apply_ls(self, E: np.ndarray) -> np.ndarray:
        """(I + k^2 R0 M) E with R0 the true resolvent (curl curl - k^2)^{-1}."""
        return E + self.k ** 2 * self.convolver.apply_resolvent_array(self.m_grid * E)

    def solve(self, source: VectorFieldC3, tol: float = 1e-10,
              max_iter: int = 60) -> ForwardSolution:
        if source.grid != self.grid:
            raise ValueError("source grid does not match solver grid")
        b = self.convolver.apply_resolvent_array(source.values)
        E, iters, res = (b, 1, 0.0) if not np.any(self.m_grid) else solve_fixed_point(
            self._apply_ls, b, tol, max_iter, "Maxwell solve")
        return ForwardSolution(field=VectorFieldC3(self.grid, E), iterations=iters, residual=res)


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


def _dipole_block(k: float, weight: float, coords: np.ndarray, mesh: SphereMesh, nodes: slice):
    """Trace-map rows of the cells at `coords` (C, 3) for a block of mesh
    nodes, (C, 3, B, 2): [c, j, n, t] = (E x nu) . e_t = E . (nu x e_t) at node n
    (e_0, e_1 = theta_hat_n, phi_hat_n) per unit current J_j in cell c, which is
    `weight` (G(x_n - y_c) u)_j for u = nu_n x e_t = phi_hat_n, -theta_hat_n:
    column (n, t) is the field in the cells of the dipole u at x_n (G is symmetric)."""
    u = np.stack([mesh.phi_hat[nodes], -mesh.theta_hat[nodes]], axis=2)  # (B, 3, 2)
    d = mesh.nodes[nodes][None, :, :] - coords[:, None, :]  # (C, B, 3)
    a, b = (weight * c[:, :, None] for c in _green_coeffs(k, np.linalg.norm(d, axis=2)))
    bdu = b * (d[..., 0, None] * u[:, 0] + d[..., 1, None] * u[:, 1] + d[..., 2, None] * u[:, 2])
    out = np.empty((len(d), 3) + bdu.shape[1:], dtype=np.complex128)
    for j in range(3):  # (G u)_j = a u_j + b d_j (d . u)
        np.multiply(a, u[:, j], out=out[:, j])
        out[:, j] += bdu * d[:, :, j, None]
    return out


def _sub_grid(grid: Grid3, box: tuple) -> Grid3:
    """The grid of the cells in `box`, a tuple of three index slices."""
    lo = np.array([s.start for s in box])
    return Grid3(tuple(np.asarray(grid.origin) + lo * grid.spacing), grid.spacing,
                 tuple(s.stop - s.start for s in box))


def _bounding_box(mask: np.ndarray) -> tuple:
    """Index slices of the smallest box holding the nonzero cells of `mask`."""
    return tuple(slice(int(a.min()), int(a.max()) + 1) for a in np.nonzero(mask))


class HomogeneousTraceMap:
    """Linear map from current samples on the source support to the boundary
    trace, in any medium: E = R0(k)(i k J) - k^2 R0(k)(m E) is linear in J,
    so the trace of every current is one matrix product, which makes large
    Monte Carlo ensembles cheap.

    The map is one C-contiguous complex (3C, 2N) array, 3C * 2N * 16 bytes
    for C support cells and N mesh nodes: row 3c + j takes component j of the
    current in cell c, column 2n + t gives the trace E x nu at node n along
    theta_hat_n (t = 0) or phi_hat_n (t = 1). Each entry carries the h^3 cell
    weight; the ik source factor cancels the 1/(ik) of R0 = G/(ik).

    In the homogeneous medium (m = 0 on the grid) the map is the direct
    superposition of closed-form Green-tensor columns, with no FFT and no
    interpolation. The build fills it in blocks of _NODE_BLOCK mesh nodes,
    writing G u = a u + b d (d . u) for each node's two tangential dipoles u
    into its final layout, so the build needs the map and one block more.

    A contrast m adds a scattered term, by reciprocity (the discrete kernel
    is symmetric): column (n, t) over the contrast's cells is the incident
    field of the tangential dipole u_{n,t} at node n. `solve_fixed_point`
    solves a block of them at once, as one system, on the bounding box of
    supp(m) (to tol within max_iter, SolverError otherwise), and
    -k^2 R0(m E), read at the source cells, is added to the column. Both
    box convolvers are the full-grid operator restricted to their box, so
    the map is T_src J + T_med(ik m E) with E the full-grid solution. Fields
    are taken at grid cells inside the ball only, never at a mesh node.

    `traces` applies the map to a real current as one real matrix product
    with the map viewed as a real (3C, 4N) array, whose result, viewed as
    complex, gives the trace T_theta theta_hat + T_phi phi_hat; a complex
    current takes two such products, one for its real and one for its
    imaginary part.
    """

    def __init__(self, k: float, grid: Grid3, support_mask: np.ndarray, mesh: SphereMesh,
                 medium: MediumSpec | None = None, tol: float = 1e-10, max_iter: int = 60):
        self.k = float(k)
        self.grid = grid
        self.mesh = mesh
        self.support_mask = np.asarray(support_mask, dtype=bool)
        coords = grid.nodes()[:, self.support_mask].T  # (C, 3)
        self.n_cells = C = coords.shape[0]
        N = mesh.n_nodes
        self._flat = np.empty((3 * C, 2 * N), dtype=np.complex128)
        out = self._flat.reshape(C, 3, N, 2)  # [c, j, n, t]
        for lo in range(0, N, _NODE_BLOCK):
            nodes = slice(lo, lo + _NODE_BLOCK)
            out[:, :, nodes, :] = _dipole_block(self.k, grid.cell_volume, coords, mesh, nodes)
        if medium is not None:
            self._add_scattering(medium, tol, max_iter)

    def _add_scattering(self, medium: MediumSpec, tol: float, max_iter: int) -> None:
        grid, mesh, k = self.grid, self.mesh, self.k
        contrast = evaluate_on_grid(medium, grid).values.real != 0
        if not np.any(contrast):
            return
        box = _bounding_box(contrast)
        solver = MaxwellSolver(k, medium, _sub_grid(grid, box))
        cells = solver.m_grid != 0
        cell_coords = solver.grid.nodes()[:, cells].T
        outer = _bounding_box(contrast | self.support_mask)
        conv = FreeConvolver(k, _sub_grid(grid, outer))
        inner = tuple(slice(b.start - o.start, b.stop - o.start) for b, o in zip(box, outer))
        sources = self.support_mask[outer]
        # nodes per block: the padded transforms of one node's two dipoles
        # take 6 * prod(padded) complex values
        block = int(np.clip(_SCATTER_BYTES // (96 * np.prod(conv.padded)), 1, _NODE_BLOCK))
        out = self._flat.reshape(self.n_cells, 3, mesh.n_nodes, 2)
        for lo in range(0, mesh.n_nodes, block):
            nodes = slice(lo, lo + block)
            b = np.zeros((2, len(mesh.nodes[nodes]), 3) + solver.grid.dims, dtype=np.complex128)
            b[..., cells] = _dipole_block(k, grid.cell_volume, cell_coords, mesh, nodes).T
            E, _, _ = solve_fixed_point(solver._apply_ls, b, tol, max_iter, "trace-map box solve")
            mE = np.zeros(b.shape[:3] + conv.grid.dims, dtype=np.complex128)
            mE[(Ellipsis,) + inner] = solver.m_grid * E
            scat = -k ** 2 * conv.apply_resolvent_array(mE)[..., sources]  # [t, n, j, c]
            out[:, :, nodes, :] += scat.T

    def traces(self, J_support: np.ndarray) -> np.ndarray:
        """Boundary traces E x nu for a batch of currents restricted to the
        support.

        J_support: (M, C, 3) real or complex -> traces (M, N, 3).
        """
        Jb = np.reshape(J_support, (len(J_support), -1))
        W = self._flat.view(np.float64)  # (3C, 4N): re/im interleaved per column
        if np.iscomplexobj(Jb):
            T = (Jb.real @ W).view(np.complex128) + 1j * (Jb.imag @ W).view(np.complex128)
        else:
            T = (Jb @ W).view(np.complex128)
        return self.mesh.from_frame(T.reshape(len(Jb), self.mesh.n_nodes, 2))

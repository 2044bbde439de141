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
    "noise_positions",
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


def noise_positions(support: np.ndarray) -> np.ndarray:
    """Flat positions, in the full-grid draw of `noise_values`, of the three
    components of the cells of a boolean grid mask, in increasing order."""
    return (np.arange(3)[:, None] * support.size + np.flatnonzero(support)).ravel()


def noise_values(amplitude: np.ndarray, master_seed: int, index: int, positions=None) -> np.ndarray:
    """Raw J samples: three independent real Gaussians per grid cell, scaled
    by `amplitude` (see `noise_amplitude`); shape (3,) + grid dims.
    Bit-identical regeneration from (master_seed, index).

    With the draw `positions` of C support cells (`noise_positions`), only
    those cells are returned, shape (3, C), and `amplitude` holds their C
    values. A cell's samples are those of the full-grid draw: the generator
    fills the draw in stream order, so it stops at the last position.
    """
    rng = np.random.default_rng([int(master_seed), int(index), NOISE_STREAM_TAG])
    if positions is None:
        return rng.standard_normal((3,) + np.shape(amplitude)) * amplitude
    return rng.standard_normal(positions[-1] + 1)[positions].reshape(3, -1) * amplitude


def neumann_solve(apply, b: np.ndarray, tol: float, max_iter: int):
    """Neumann iteration x <- b - (A x - x) on a stack of systems A x = b
    (leading axis of b); `apply(x, sel)` applies A to the iterates x of the
    systems sel. A system leaves with its iterate when its residual
    ||A x - b|| / ||b|| reaches tol or stops contracting (above 0.9 times the
    previous one); b = 0 stops at once. Returns the iterates and, per system,
    the iteration count, residual and history, for the caller to judge."""
    bnorm, history = [np.linalg.norm(bi) for bi in b], [[] for _ in b]
    x, act = b.copy(), np.flatnonzero(bnorm)
    xa = ba = b if act.size == len(b) else b[act]  # the systems still in the batch
    for _ in range(max_iter):
        if not act.size:
            break
        Ax, go = apply(xa, act), []
        for j, i in enumerate(act):
            (h := history[i]).append(np.linalg.norm(Ax[j] - ba[j]) / bnorm[i])
            if not (h[-1] <= tol or (len(h) > 1 and h[-1] > 0.9 * h[-2])):
                go.append(j)
        if len(go) < len(act):  # the stopped systems leave with their current iterates
            x[act] = xa
            act, xa, ba, Ax = act[go], xa[go], ba[go], Ax[go]
        xa = ba - (Ax - xa)  # x <- b - K x, reusing Ax = x + K x
    x[act] = xa
    iters = np.array([max(len(h), 1) for h in history])
    return x, iters, np.array([h[-1] if h else 0.0 for h in history]), history


def solve_fixed_point(apply, b: np.ndarray, tol: float, max_iter: int, what: str):
    """Solve the stack of systems A x = b, A = `apply` = I + K, each to
    ||A x - b|| / ||b|| <= tol: `neumann_solve`, then restarted GMRES(30)
    from the iterate, at most max_iter restarts, for each system alone that
    missed tol. Returns x and, per system, the iterations (GMRES inner ones
    included) and the residual. Raises SolverError, with the residual
    history and a message naming `what` (and the system, in a stack), when a
    residual misses tol."""
    x, iters, res, history = neumann_solve(apply, b, tol, max_iter)
    for i in np.flatnonzero(res > tol):  # stagnation or too few iterations: hand off to GMRES
        from scipy.sparse.linalg import LinearOperator, gmres  # scipy.sparse loads only here
        shape, sel = b.shape[1:], np.array([i])
        A = LinearOperator((b[i].size, b[i].size), dtype=np.complex128,
                           matvec=lambda v: apply(v.reshape((1,) + shape), sel)[0].ravel())
        inner = []  # one residual estimate per GMRES inner iteration
        sol, _ = gmres(A, b[i].ravel(), x0=x[i].ravel(), rtol=tol, atol=0.0, restart=30,
                       maxiter=max_iter, callback=inner.append, callback_type="pr_norm")
        x[i], iters[i] = sol.reshape(shape), iters[i] + len(inner)
        res[i] = np.linalg.norm(apply(x[i][None], sel)[0] - b[i]) / np.linalg.norm(b[i])
        history[i].append(res[i])
        if res[i] > tol:
            raise SolverError(f"{what}{f' of system {i}' if len(b) > 1 else ''} stopped at "
                              f"residual {res[i]:.3e} (tol {tol:.1e}) after {iters[i]} iterations",
                              history[i])
    return x, iters, res


class MaxwellSolver:
    """Reusable solver: the kernel transforms are computed once per (k, grid)
    and shared read-only by every solve."""

    def __init__(self, k: float, medium: MediumSpec, grid: Grid3):
        self.k = float(k)
        self.grid = grid
        self.convolver = FreeConvolver(self.k, grid)
        self.m_grid = evaluate_on_grid(medium, grid).values.real

    def _apply_ls(self, E: np.ndarray, sel=None) -> np.ndarray:
        """(I + k^2 R0 M) E with R0 the true resolvent (curl curl - k^2)^{-1},
        the operator of every system `sel` of a stack."""
        return E + self.k ** 2 * self.convolver.apply_resolvent_array(self.m_grid * E)

    def solve(self, source: VectorFieldC3, tol: float = 1e-10,
              max_iter: int = 60) -> ForwardSolution:
        if source.grid != self.grid:
            raise ValueError("source grid does not match solver grid")
        b = self.convolver.apply_resolvent_array(source.values)
        E, iters, res = (b[None], [1], [0.0]) if not np.any(self.m_grid) else solve_fixed_point(
            self._apply_ls, b[None], tol, max_iter, "Maxwell solve")
        return ForwardSolution(VectorFieldC3(self.grid, E[0]), int(iters[0]), float(res[0]))


def extract_trace(E: VectorFieldC3, mesh: SphereMesh) -> np.ndarray:
    """Tangential trace E x nu at the mesh nodes, (N, 3), with E interpolated
    trilinearly."""
    if not E.grid.contains_ball(mesh.radius):
        raise ValueError("measurement sphere is not inside the grid box")
    Ev = trilinear_interpolate(E.values, E.grid, mesh.nodes).T  # (N, 3)
    return np.cross(Ev, mesh.normals)


def curl_grid(F: np.ndarray, h: float) -> np.ndarray:
    """Curl of (..., 3, nx, ny, nz) samples with compact 4th-order stencils,
    read from one copy wrap-padded by two cells per axis (wrap layers are
    trimmed by the caller's interior collar)."""
    n = F.shape[-3:]
    G = np.pad(F, [(0, 0)] * (F.ndim - 3) + [(2, 2)] * 3, mode="wrap")

    def at(c, ax, o):  # component c at offset o along grid axis ax
        sl = [slice(2, 2 + v) for v in n]
        sl[ax] = slice(2 + o, 2 + o + n[ax])
        return G[(Ellipsis, c) + tuple(sl)]

    def d(c, ax):
        return (8.0 * (at(c, ax, 1) - at(c, ax, -1)) - (at(c, ax, 2) - at(c, ax, -2))) / (12.0 * h)

    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-4)


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
            b = np.zeros((1, 2, len(mesh.nodes[nodes]), 3) + solver.grid.dims, dtype=np.complex128)
            b[..., cells] = _dipole_block(k, grid.cell_volume, cell_coords, mesh, nodes).T
            E = solve_fixed_point(solver._apply_ls, b, tol, max_iter, "trace-map box solve")[0]
            mE = np.zeros(b.shape[1:4] + conv.grid.dims, dtype=np.complex128)
            mE[(Ellipsis,) + inner] = solver.m_grid * E[0]
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

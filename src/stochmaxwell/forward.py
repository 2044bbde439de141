"""White-noise current sampling, the volume-integral Maxwell solver and the
boundary trace map.

The inhomogeneous-medium problem is solved in Lippmann-Schwinger form

    E = R0(k)(source) - k^2 R0(k)(m E),

by `solve_fixed_point`, the solver of every contrast system (the CGO
remainder too): Neumann iteration, handed off to restarted GMRES when the
fixed point does not contract. The radiation condition is inherited from
the outgoing convolution kernel.

Ensembles go through `HomogeneousTraceMap`, the current-to-trace map of any
medium, which gives each trace by its (theta_hat, phi_hat) frame components;
the full-grid `MaxwellSolver.solve` with `extract_trace` is the reference it
is checked against. Grid samples are ndarrays `(3,) + grid.dims`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Grid3,
    MediumSpec,
    SphereMesh,
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
_SLICE_BYTES = 1 << 20  # symmetry-adapted currents per slice of the trace-map apply
_CENTRED = 1e-14  # |lo + hi| / (hi - lo) of a grid axis centred to rounding


class SolverError(RuntimeError):
    """Iteration failed to converge; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


@dataclass(frozen=True)
class ForwardSolution:
    field: np.ndarray  # (3,) + grid.dims complex
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
    previous one) or is not finite; b = 0 stops at once. Returns the iterates
    and, per system, the iteration count, residual and history, for the
    caller to judge."""
    bnorm, history = np.linalg.norm(b.reshape(len(b), -1), axis=1), [[] for _ in b]
    x, act = b.copy(), np.flatnonzero(bnorm)
    xa = ba = b if act.size == len(b) else b[act]  # the systems still in the batch
    for _ in range(max_iter):
        if not act.size:
            break
        Ax, go = apply(xa, act), []
        res = np.linalg.norm((Ax - ba).reshape(len(act), -1), axis=1) / bnorm[act]
        for j, (i, r) in enumerate(zip(act, res.tolist())):  # every residual in one reduction
            (h := history[i]).append(r)
            if tol < h[-1] < np.inf and (len(h) == 1 or h[-1] <= 0.9 * h[-2]):
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
    residual misses tol or is not finite (then without the GMRES hand-off)."""
    x, iters, res, history = neumann_solve(apply, b, tol, max_iter)
    for i in np.flatnonzero(~(res <= tol)):  # stagnation, too few iterations or nan
        system = f" of system {i}" if len(b) > 1 else ""
        if not np.isfinite(res[i]):
            raise SolverError(f"{what}{system} has the non-finite residual {res[i]} after "
                              f"{iters[i]} iterations", history[i])
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
        if not res[i] <= tol:
            raise SolverError(f"{what}{system} stopped at residual {res[i]:.3e} "
                              f"(tol {tol:.1e}) after {iters[i]} iterations", history[i])
    return x, iters, res


class MaxwellSolver:
    """Reusable solver: the kernel transforms are computed once per (k, grid)
    and shared read-only by every solve."""

    def __init__(self, k: float, medium: MediumSpec, grid: Grid3):
        self.k = float(k)
        self.grid = grid
        self.convolver = FreeConvolver(self.k, grid)
        self.m_grid = evaluate_on_grid(medium, grid)

    def _apply_ls(self, E: np.ndarray, sel=None) -> np.ndarray:
        """(I + k^2 R0 M) E with R0 the true resolvent (curl curl - k^2)^{-1},
        the operator of every system `sel` of a stack."""
        return E + self.k ** 2 * self.convolver.apply_resolvent_array(self.m_grid * E)

    def solve(self, source: np.ndarray, tol: float = 1e-10,
              max_iter: int = 60) -> ForwardSolution:
        """The field E (3,) + grid.dims radiated by the finite current source
        (3,) + grid.dims in the solver's medium."""
        _check_grid_vector(source, self.grid)
        b = self.convolver.apply_resolvent_array(source)
        E, iters, res = solve_fixed_point(self._apply_ls, b[None], tol, max_iter, "Maxwell solve")
        return ForwardSolution(E[0], int(iters[0]), float(res[0]))


def _check_grid_vector(values: np.ndarray, grid: Grid3) -> None:
    if np.shape(values) != (3,) + grid.dims:
        raise ValueError(f"vector samples of shape {np.shape(values)}, "
                         f"not {(3,) + grid.dims} on this grid")


def extract_trace(E: np.ndarray, grid: Grid3, mesh: SphereMesh) -> np.ndarray:
    """Tangential trace E x nu at the mesh nodes, (N, 3), of the samples E
    (3,) + grid.dims interpolated trilinearly."""
    _check_grid_vector(E, grid)
    if not grid.contains_ball(mesh.radius):
        raise ValueError("measurement sphere is not inside the grid box")
    return np.cross(trilinear_interpolate(E, grid, mesh.nodes).T, mesh.normals)


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

    return _curl_stencil(at, h, axis=-4)


def curl_at(F: np.ndarray, h: float, shifted: dict) -> np.ndarray:
    """`curl_grid(F, h)` at K flat cells only, as (..., 3, K), bit for bit,
    from their stencil neighbours `shifted` (`stencil_cells`)."""
    flat = F.reshape(F.shape[:-3] + (-1,))
    return _curl_stencil(lambda c, ax, o: flat[..., c, shifted[ax, o]], h, axis=-2)


def stencil_cells(n: tuple, cells: np.ndarray) -> dict:
    """Flat index {(ax, o): (K,)} of the neighbour at offset o along axis ax
    of each flat cell (K,) of an n grid that `curl_grid` reads, wrapping."""
    ijk, shifted = np.unravel_index(cells, n), {}
    for ax in range(3):
        for o in (-2, -1, 1, 2):
            idx = list(ijk)
            idx[ax] = (idx[ax] + o) % n[ax]
            shifted[ax, o] = np.ravel_multi_index(idx, n)
    return shifted


def _curl_stencil(at, h: float, axis: int) -> np.ndarray:
    """The curl from the samples at(c, ax, o) of component c at offset o
    along grid axis ax, by the compact 4th-order difference, components
    stacked on `axis`."""
    def d(c, ax):
        return (8.0 * (at(c, ax, 1) - at(c, ax, -1)) - (at(c, ax, 2) - at(c, ax, -2))) / (12.0 * h)

    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=axis)


def _dipole_block(k: float, weight: float, coords: np.ndarray, mesh: SphereMesh, nodes):
    """Trace-map rows of the cells at `coords` (C, 3) for the mesh nodes
    `nodes` (an index array or slice), (C, 3, B, 2): [c, j, n, t] =
    (E x nu) . e_t = E . (nu x e_t) at node n (e_0, e_1 = theta_hat_n,
    phi_hat_n) per unit current J_j in cell c, which is `weight`
    (G(x_n - y_c) u)_j for u = nu_n x e_t = phi_hat_n, -theta_hat_n: column
    (n, t) is the field in the cells of the dipole u at x_n (G is
    symmetric)."""
    u = np.stack([mesh.phi_hat[nodes], -mesh.theta_hat[nodes]], axis=2)  # (B, 3, 2)
    d = mesh.nodes[nodes][None, :, :] - coords[:, None, :]  # (C, B, 3)
    a, b = (weight * c[:, :, None] for c in _green_coeffs(k, np.linalg.norm(d, axis=2)))
    bdu = b * (d[..., 0, None] * u[:, 0] + d[..., 1, None] * u[:, 1] + d[..., 2, None] * u[:, 2])
    out = np.empty((len(d), 3) + bdu.shape[1:], dtype=np.complex128)
    for j in range(3):  # (G u)_j = a u_j + b d_j (d . u)
        np.multiply(a, u[:, j], out=out[:, j])
        out[:, j] += bdu * d[:, :, j, None]
    return out


def _mirror_axes(grid: Grid3, mask: np.ndarray) -> list:
    """The coordinate axes whose mirror maps the grid and the mask onto
    themselves: the grid centred on the axis to rounding, and the mask equal
    to its flip along it."""
    lo = np.asarray(grid.origin)
    hi = lo + (np.asarray(grid.dims) - 1) * grid.spacing
    return [a for a in range(3) if abs(lo[a] + hi[a]) <= _CENTRED * (hi[a] - lo[a])
            and np.array_equal(mask, np.flip(mask, a))]


def _node_mirror(mesh: SphereMesh, a: int) -> np.ndarray:
    """Mesh node of the mirror image of each node in axis a: node
    (i_theta, j_phi) goes to (n_theta - 1 - i, j) for z, (i, -j) for y and
    (i, n_phi / 2 - j) for x, azimuths modulo n_phi."""
    i, j = np.divmod(np.arange(mesh.n_nodes), mesh.n_phi)
    if a == 2:
        i = mesh.n_theta - 1 - i
    else:
        j = ((mesh.n_phi // 2 if a == 0 else 0) - j) % mesh.n_phi
    return i * mesh.n_phi + j


def _orbits(n: int, mirrors: list):
    """Orbits of n points under the group of 2^g elements generated by g
    commuting mirror permutations, element h applying mirror b when bit b of
    h is set: the representatives (each orbit's least point), the (2^g, R)
    table of their images, their stabilizer sizes and, for every point p,
    the h and r with h rep_r = p."""
    perms = np.arange(n)[None]
    for m in mirrors:
        perms = np.concatenate([perms, m[perms]])
    least = perms.min(axis=0)
    reps = np.flatnonzero(least == np.arange(n))
    table = perms[:, reps]
    # the elements are involutions: h maps rep_r to p when it maps p to rep_r
    return (reps, table, (table == reps).sum(axis=0), np.argmax(perms == least, axis=0),
            np.searchsorted(reps, least))


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
    so the trace of every current is a few matrix products, which makes
    large Monte Carlo ensembles cheap.

    Entry [(c, j), (n, t)] of the map takes component j of the current in
    cell c to the trace E x nu at node n along theta_hat_n (t = 0) or
    phi_hat_n (t = 1). Each entry carries the h^3 cell weight; the ik source
    factor cancels the 1/(ik) of R0 = G/(ik).

    The map is held on the blocks of the group of coordinate mirrors that
    it commutes with (Bossavit, CMAME 56, 1986). Mirror a (x -> S x, S
    flipping axis a) counts when the support mask equals its flip along a,
    the grid is centred on a to rounding and the medium has no contrast on
    the grid; the mesh always has all three. Then G(S d) = S G(d) S, and
    with S e_t(x) = sigma_t e_t(S x) for the frame vectors the map obeys
    W[(h c, j), (h n, t)] = a(h, t) psi_j(h) W[(c, j), (n, t)], psi_j(h) = -1
    when h flips axis j, a(h, t) = det(h) sigma_t(h). For the 2^g group
    elements h and characters chi, cell and node orbit representatives c_r
    and n_r, the map is the 2^g complex blocks

        Y_chi[(r, j), (n_r, t)] = sum_h chi(h) psi_j(h) W[(h c_r, j), (n_r, t)]
                                  / (2^g |Stab c_r|),

    each (3R, 2N_r) for R cell and N_r node orbits, and a current J gives
    F_chi[r, j] = sum_h chi(h) psi_j(h) J[h c_r, j] and the trace
    T[g n_r, t] = a(g, t) sum_chi chi(g) (F_chi Y_chi)[n_r, t]. Contrasts
    are left out: grid coordinates mirror only to rounding, so a sampled
    medium rarely equals its flip, and a medium run keeps g = 0, where the
    one block is the dense (3C, 2N) map (rows 3c + j, columns 2n + t) and
    the apply is its one product.

    In the homogeneous medium (m = 0 on the grid) the map is the direct
    superposition of closed-form Green-tensor columns, with no FFT and no
    interpolation. The build evaluates G u = a u + b d (d . u) for the two
    tangential dipoles u of _NODE_BLOCK representative nodes at a time over
    all cells, and folds them into the blocks, so it needs the blocks and
    a node block more.

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
    per block, with the block viewed as a real (3R, 4N_r) array, whose
    result, viewed as complex, gives the frame components (T_theta, T_phi)
    of the trace; a complex current takes this twice, for its real and its
    imaginary part.
    """

    def __init__(self, k: float, grid: Grid3, support_mask: np.ndarray, mesh: SphereMesh,
                 medium: MediumSpec | None = None, tol: float = 1e-10, max_iter: int = 60):
        self.k = float(k)
        self.grid = grid
        self.mesh = mesh
        self.support_mask = mask = np.asarray(support_mask, dtype=bool)
        coords = grid.nodes()[:, mask].T  # (C, 3)
        self.n_cells = C = coords.shape[0]
        contrast = (np.zeros(grid.dims, dtype=bool) if medium is None
                    else evaluate_on_grid(medium, grid) != 0)
        axes = [] if np.any(contrast) else _mirror_axes(grid, mask)
        index = np.full(grid.dims, -1)
        index[mask] = np.arange(C)
        node_mirrors = [_node_mirror(mesh, a) for a in axes]
        _, cells, stab = _orbits(C, [np.flip(index, a)[mask] for a in axes])[:3]
        node_reps, _, _, h_of, r_of = _orbits(mesh.n_nodes, node_mirrors)
        G, R, Nr = len(cells), len(stab), len(node_reps)
        bit = (np.arange(G)[:, None] >> np.arange(len(axes))) & 1  # (G, g)
        # the character table: chi_s(h) = (-1)^popcount(s & h), symmetric
        self._chars = (-1.0) ** (bit @ bit.T)
        psi, alpha = np.ones((G, 3)), np.ones((G, 2))
        for b, (a, perm) in enumerate(zip(axes, node_mirrors)):
            S = np.where(np.arange(3) == a, -1.0, 1.0)
            # sigma_t: e_t(S x_n) = sigma_t S e_t(x_n), +-1 alike at every node
            sigma = np.rint(np.einsum("nit,i,nit->t", mesh.frame[perm], S, mesh.frame)
                            / mesh.n_nodes)
            psi[bit[:, b] == 1] *= S
            alpha[bit[:, b] == 1] *= -sigma  # det = -1 per mirror
        # current rows (h c_r, j) of each (h, (r, j)), and their signs psi_j(h)
        self._rows = (3 * cells[:, :, None] + np.arange(3)).reshape(G, 3 * R)
        self._psi = np.tile(psi, R)
        self._node_src, self._node_sign = h_of * Nr + r_of, alpha[h_of]  # (N,), (N, 2)
        scale = psi[:, None, :, None, None] / (G * stab[None, :, None, None, None])  # exact
        self._blocks = np.empty((G, R, 3, Nr, 2), dtype=np.complex128)  # [chi, r, j, n_r, t]
        for lo in range(0, Nr, _NODE_BLOCK):
            nodes = node_reps[lo : lo + _NODE_BLOCK]
            blk = _dipole_block(self.k, grid.cell_volume, coords, mesh, nodes)[cells] * scale
            chi = self._chars @ blk.reshape(G, -1).view(np.float64)  # sum over h, real parts apart
            self._blocks[:, :, :, lo : lo + len(nodes)] = chi.view(np.complex128).reshape(blk.shape)
        if np.any(contrast):
            self._add_scattering(medium, contrast, tol, max_iter)

    def _add_scattering(self, medium: MediumSpec, contrast: np.ndarray, tol: float,
                        max_iter: int) -> None:
        grid, mesh, k = self.grid, self.mesh, self.k
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
        out = self._blocks[0]  # a contrast leaves one block, the dense map [c, j, n, t]
        for lo in range(0, mesh.n_nodes, block):
            nodes = slice(lo, lo + block)
            b = np.zeros((1, 2, len(mesh.nodes[nodes]), 3) + solver.grid.dims, dtype=np.complex128)
            b[..., cells] = _dipole_block(k, grid.cell_volume, cell_coords, mesh, nodes).T
            E = solve_fixed_point(solver._apply_ls, b, tol, max_iter, "trace-map box solve")[0]
            mE = np.zeros(b.shape[1:4] + conv.grid.dims, dtype=np.complex128)
            mE[(Ellipsis,) + inner] = solver.m_grid * E[0]
            scat = -k ** 2 * conv.apply_resolvent_array(mE)[..., sources]  # [t, n, j, c]
            out[:, :, nodes, :] += scat.T

    def _frame_traces(self, Jb: np.ndarray) -> np.ndarray:
        """Frame components (M, N, 2) of the traces of real currents (M, 3C).
        The currents are gathered to their orbits and transformed to the
        characters a slice of realizations at a time, then each block takes
        one product over all of them."""
        (G, R3), Nr, M = self._rows.shape, self._blocks.shape[3], len(Jb)
        if G == 1:  # one block (a medium run): the gathers, signs and characters are identities
            T = np.ascontiguousarray(Jb) @ self._blocks[0].view(np.float64).reshape(R3, 4 * Nr)
            return T.view(np.complex128).reshape(M, Nr, 2)
        F = np.empty((M, G, R3))  # [m, chi, (r, j)]
        X = np.empty((max(1, _SLICE_BYTES // max(1, F[0].nbytes)), G, R3))  # [m, h, (r, j)]
        for lo in range(0, M, len(X)):
            n = min(len(X), M - lo)
            np.take(Jb[lo : lo + n], self._rows, axis=1, out=X[:n], mode="clip")  # unbuffered
            X[:n] *= self._psi
            np.matmul(self._chars, X[:n], out=F[lo : lo + n])
        P = np.empty((M, G, 4 * Nr))  # [m, chi, (n_r, t, re/im)]
        for s in range(G):
            np.matmul(F[:, s], self._blocks[s].view(np.float64).reshape(R3, 4 * Nr), out=P[:, s])
        T = (self._chars @ P).view(np.complex128).reshape(M, G * Nr, 2)  # [m, (g, n_r), t]
        T = np.take(T, self._node_src, axis=1, mode="clip")
        T *= self._node_sign
        return T

    def traces(self, J_support: np.ndarray) -> np.ndarray:
        """Frame components (M, N, 2) of the boundary traces E x nu of a batch
        of currents on the support cells, (M, n_cells, 3) real or complex."""
        if np.shape(J_support)[1:] != (self.n_cells, 3):
            raise ValueError(f"currents of shape {np.shape(J_support)}, "
                             f"not (M, {self.n_cells}, 3) on the support")
        Jb = np.reshape(J_support, (len(J_support), -1))
        if np.iscomplexobj(Jb):
            return self._frame_traces(Jb.real) + 1j * self._frame_traces(Jb.imag)
        return self._frame_traces(Jb)

"""Deterministic verification oracles, shared by `stochmaxwell verify` and the
tests, each caller with its own probes.

An oracle takes its probe data (points, modes, plane waves, an rng, a
realization count) and returns the measured quantity, or both sides of the
identity where callers apply different norms. A probe source or contrast that
samples to zero on the grid raises ConfigurationError, since the identity
would then hold trivially.
"""
from __future__ import annotations

import numpy as np

from .capacity import radiating_multipole
from .cgo import CgoSolution, cgo_on_sphere, cgo_product_remainder, solve_cgo_remainder
from .forward import curl_grid, noise_amplitude, noise_positions, noise_values
from .geometry import (
    ConfigurationError, Grid3, MediumSpec, SourceStrength, evaluate_on_grid,
)
from .greens import FreeConvolver, dyadic_green, helmholtz_g
from .reconstruct import dual_functional_vector

__all__ = [
    "green_reciprocity", "green_hessian_fd", "near_cell_probe", "convolution_vs_direct",
    "multipoles", "capacity_identity", "plane_waves", "ibp_identity", "cgo_residual",
    "cgo_stencil_residual", "cgo_product_identity", "ito_isometry",
]


def green_reciprocity(k: float, rng, n: int, min_sep: float) -> float:
    """Worst entry of G(x, y) - G(y, x)^T over n point pairs drawn uniformly
    from [-1, 1]^3, skipping pairs closer than min_sep."""
    worst = 0.0
    for x, y in rng.uniform(-1.0, 1.0, (n, 2, 3)):
        if np.linalg.norm(x - y) >= min_sep:
            G1, G2 = dyadic_green(k, x, y), dyadic_green(k, y, x)
            worst = max(worst, float(np.max(np.abs(G1 - G2.T))))
    return worst


def green_hessian_fd(k: float, x, y, h: float) -> float:
    """Relative Frobenius gap between dyadic_green(k, x, y) and
    i k g I + (i/k) H_h g, with H_h the central-difference Hessian of
    g(|x - y|) in x at step h: O(h^2) plus rounding of order 1e-16 / h^2.
    Shares no algebra with the closed form."""
    x, y, E = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), h * np.eye(3)

    def g(p):
        return helmholtz_g(k, np.linalg.norm(p - y))

    H = np.array([[g(x + E[i] + E[j]) - g(x + E[i] - E[j]) - g(x - E[i] + E[j])
                   + g(x - E[i] - E[j]) for j in range(3)] for i in range(3)]) / (4.0 * h * h)
    want = 1j * k * g(x) * np.eye(3) + (1j / k) * H
    return float(np.linalg.norm(dyadic_green(k, x, y) - want) / np.linalg.norm(want))


def near_cell_probe(k: float, grid: Grid3, v, offsets) -> float:
    """Worst relative gap between the padded convolution of a one-cell source v
    at the grid centre, read at node `offsets` (in cells, inside the
    product-integrated 7^3 block, off the singular cell), and v times the
    mean of dyadic_green over the displaced cell by 16^3 Gauss-Legendre
    nodes (the convolver integrates `_green_coeffs` with 12 per axis)."""
    h, c = grid.spacing, np.array(grid.dims) // 2
    f = np.zeros((3,) + grid.dims, dtype=np.complex128)
    f[(slice(None),) + tuple(c)] = v
    conv = FreeConvolver(k, grid).apply_array(f) / grid.cell_volume
    x, w = np.polynomial.legendre.leggauss(16)
    nodes = 0.5 * h * np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = np.einsum("i,j,l->ijl", w, w, w).ravel() / 8.0
    worst = 0.0
    for o in np.asarray(offsets):
        want = sum(wq * dyadic_green(k, o * h + q, np.zeros(3)) for q, wq in zip(nodes, wts)) @ v
        got = conv[(slice(None),) + tuple(c + o)]
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    return worst


def convolution_vs_direct(k: float, rng) -> float:
    """Worst relative gap between the padded convolution G * f and direct
    Green summation at ten grid nodes drawn from rng in the 4^3 corner block,
    for f a random complex 4^3 block drawn from rng at the centre of the
    24^3 cube of half-width 1."""
    grid = Grid3.cube(1.0, 24)
    f = np.zeros((3,) + grid.dims, dtype=np.complex128)
    c = grid.dims[0] // 2
    f[:, c - 2 : c + 2, c - 2 : c + 2, c - 2 : c + 2] = rng.standard_normal(
        (3, 4, 4, 4)
    ) + 1j * rng.standard_normal((3, 4, 4, 4))
    conv = FreeConvolver(k, grid).apply_array(f)
    nodes = grid.nodes()
    sup = np.abs(f).sum(axis=0) > 0
    ys, fy = nodes[:, sup].T, f[:, sup].T
    worst = 0.0
    for idx in [tuple(rng.integers(0, 4, 3)) for _ in range(10)]:
        at = (slice(None),) + tuple(idx)
        direct = sum(dyadic_green(k, nodes[at], y) @ v for y, v in zip(ys, fy)) * grid.cell_volume
        worst = max(worst, float(np.linalg.norm(conv[at] - direct) / np.linalg.norm(direct)))
    return worst


def multipoles(k: float, points, modes) -> list:
    """Radiating multipoles (E, H) of both kinds at `points` per (l, m)."""
    return [radiating_multipole(kind, l, m, k, points) for l, m in modes for kind in ("te", "tm")]


def capacity_identity(capacity, fields) -> list:
    """(T(E x nu), H x nu) for each radiating field (E, H) at the mesh nodes;
    the capacity operator T maps the one onto the other."""
    nu = capacity.mesh.normals
    return [(capacity.apply(np.cross(E, nu)), np.cross(H, nu)) for E, H in fields]


def plane_waves(rng, k: float, n: int) -> list:
    """n random plane waves (d, eta) with |d| = k and d . eta = 0."""
    waves = []
    for _ in range(n):
        d = rng.standard_normal(3)
        d *= k / np.linalg.norm(d)
        eta = rng.standard_normal(3)
        waves.append((d, eta - d * (d @ eta) / k ** 2))
    return waves


def ibp_identity(capacity, grid: Grid3, source, trace, waves) -> float:
    """Worst relative gap between the boundary functional of `trace` (the
    frame components (N, 2) of E x nu on the capacity mesh, for the field
    radiated by `source`, given on the grid) and the volume pairing
    int source . U over plane waves U = eta e^{i d.x}.
    The boundary side takes the reconstruction's route: a plane wave is a CGO
    pair with real zeta, sampled by `cgo_on_sphere` and paired with the
    trace through `dual_functional_vector`."""
    if not np.any(source):
        raise ConfigurationError("the probe source samples to zero on this grid")
    ds, etas = (np.array(v) for v in zip(*waves))
    mesh, nodes = capacity.mesh, grid.nodes()
    duals = dual_functional_vector(capacity, *cgo_on_sphere(ds, etas, None, grid, mesh))
    bnd = np.einsum("cnt,nt->c", duals, trace)
    worst = 0.0
    for (d, eta), b in zip(waves, bnd):
        phase = np.exp(1j * np.tensordot(d, nodes, axes=1))
        vol = np.sum(source * phase[None] * eta[:, None, None, None]) * grid.cell_volume
        worst = max(worst, float(abs(b - vol) / abs(vol)))
    return worst


def cgo_residual(xi, t: float, k: float, medium: MediumSpec, grid: Grid3, tol: float = 1e-10,
                 members=(1, 2), max_iter: int = 60):
    """Worst fixed-point residual of the CGO solutions of `members` of the
    conjugate pair of (xi, t), with the solutions; zero for m = 0, where the
    plane-wave pair is exact."""
    if not medium.is_homogeneous and not np.any(evaluate_on_grid(medium, grid)):
        raise ConfigurationError("the medium contrast samples to zero on this grid")
    sols = [solve_cgo_remainder(xi, t, k, which, medium, grid, tol, max_iter) for which in members]
    return max(s.residual for s in sols), sols


def cgo_stencil_residual(zeta, eta, k: float, grid: Grid3) -> float:
    """||curl curl U - k^2 U|| / ||k^2 U|| for the m = 0 CGO field
    U = eta e^{i zeta . x} on the grid, curls by the grid stencils, over the
    interior without the 5-cell collar where the stencils wrap; small when
    zeta . zeta = k^2, zeta . eta = 0 and |zeta| h is small."""
    U = eta[:, None, None, None] * np.exp(1j * np.tensordot(zeta, grid.nodes(), axes=1))[None]
    res = curl_grid(curl_grid(U, grid.spacing), grid.spacing) - k ** 2 * U
    inner = (slice(None),) + (slice(5, -5),) * 3
    return float(np.linalg.norm(res[inner]) / np.linalg.norm(k ** 2 * U[inner]))


def cgo_product_identity(sol1: CgoSolution, sol2: CgoSolution):
    """Both sides of U1 . U2 = e^{-i xi x}(leading + r) at amplitude level on
    the grid: the amplitude product, and leading + r from the cross-term
    expansion `cgo_product_remainder`."""
    lead, rem = cgo_product_remainder(sol1, sol2)
    return np.sum(sol1.amplitude() * sol2.amplitude(), axis=0), lead + rem


def ito_isometry(k: float, sigma: SourceStrength, grid: Grid3, zeta, eta, master_seed: int,
                 M: int):
    """Per CGO pair, the gap between the mean of B1 B2 over seed-law currents
    0..M-1 of strength sigma and its Ito-isometry value -k^2 int sigma U1.U2,
    in standard errors; B_j = ik int J . U_j, U_j = eta_j e^{i zeta_j . x},
    for stacked pairs zeta, eta of shape (P, 2, 3)."""
    sig = evaluate_on_grid(sigma, grid)
    if not np.any(sig):
        raise ConfigurationError("the probe source strength samples to zero on this grid")
    # J vanishes off the support of sigma, so the pairings run over its cells
    mask = sig > 0
    h3, coords, sig = grid.cell_volume, grid.nodes()[:, mask], sig[mask]
    us = np.exp(1j * (zeta @ coords))[:, :, None] * eta[..., None]  # (P, 2, 3, C)
    amp, pos = noise_amplitude(sig, grid.spacing), noise_positions(mask)
    B = np.empty((M, len(zeta), 2), dtype=np.complex128)
    for r in range(M):
        B[r] = 1j * k * h3 * np.einsum("pjic,ic->pj", us, noise_values(amp, master_seed, r, pos))
    prods = B[..., 0] * B[..., 1]
    target = -(k ** 2) * h3 * np.einsum("c,pic,pic->p", sig, us[:, 0], us[:, 1])
    stderr = np.std(prods, axis=0, ddof=1) / np.sqrt(M)
    return np.abs(prods.mean(axis=0) - target) / stderr

"""Test-only oracles: identities the suite checks that `stochmaxwell verify`
does not probe, and Cartesian reference copies of quantities the program
computes on frame components. Each takes its probe data and returns the
measured or reference quantity."""
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import fft as sfft

from stochmaxwell.cgo import CgoSolution
from stochmaxwell.forward import curl_grid
from stochmaxwell.geometry import Bump, Grid3, MediumSpec, evaluate_on_grid
from stochmaxwell.greens import FreeConvolver, dyadic_green, helmholtz_g


def radii(grid: Grid3) -> np.ndarray:
    """|x| at the grid nodes, shape grid.dims."""
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    return np.sqrt(x * x + y * y + z * z)


def l2_norm(values: np.ndarray, grid: Grid3, within_radius: float | None = None) -> float:
    """L2 norm of grid samples `components + grid.dims` (sum of |v|^2 h^3),
    over the nodes with |x| <= within_radius when given."""
    w = (np.abs(values) ** 2).reshape((-1,) + grid.dims).sum(axis=0)
    if within_radius is not None:
        w = w * (radii(grid) <= within_radius)
    return float(np.sqrt(w.sum() * grid.cell_volume))


def bump_integral(bump: Bump) -> float:
    """Integral of a bump over space. The radial profile has no elementary
    antiderivative; a 200-node Gauss rule on [0, 1) is exact to machine
    precision for this analytic integrand."""
    u, w = leggauss(200)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    prof = np.exp(1.0 - 1.0 / (1.0 - u ** 2))
    val = np.sum(w * prof * u ** 2)
    return 4.0 * np.pi * bump.amplitude * bump.radius ** 3 * val


def helmholtz_residual(lam: float, x0, h: float) -> float:
    """|(Delta_h + lam^2) g(x0)| for the centred 7-point Laplacian of step h,
    O(h^2) away from the origin."""
    x0 = np.asarray(x0, dtype=np.float64)
    acc = -6.0 * helmholtz_g(lam, np.linalg.norm(x0))
    for ax in range(3):
        for sgn in (-1.0, 1.0):
            acc += helmholtz_g(lam, np.linalg.norm(x0 + sgn * h * np.eye(3)[ax]))
    return float(abs(acc / h ** 2 + lam ** 2 * helmholtz_g(lam, np.linalg.norm(x0))))


def resolvent_decay_probe(lams, f: np.ndarray, grid: Grid3) -> list[tuple[float, float]]:
    """(lam, ||chi R0(lam) chi f|| / ||f||) on the grid box for each lam, f
    (3,) + grid.dims; lam times the ratio stays bounded (1/|lam| decay of the
    cut-off resolvent)."""
    return [(lam, l2_norm(FreeConvolver(lam, grid).apply_array(f), grid) / l2_norm(f, grid))
            for lam in lams]


def padded_fft_reference(f: np.ndarray, padded: tuple, symbol, dims: tuple,
                         box: tuple | None = None) -> np.ndarray:
    """`greens.padded_apply` by full transforms: f (...,) + box shape set
    into zeros (...,) + dims at the index slices `box` (the whole grid by
    default), zero-padded `fftn` to `padded`, `symbol`, `ifftn` and a crop
    to dims."""
    g = np.zeros(f.shape[:-3] + tuple(dims), dtype=np.complex128)
    g[(Ellipsis,) + (box or ())] = f
    axes = (-3, -2, -1)
    g = sfft.ifftn(symbol(sfft.fftn(g, s=padded, axes=axes)), axes=axes)
    return g[(Ellipsis,) + tuple(slice(0, n) for n in dims)]


def electric_dipole_field(k: float, source, moment, points):
    """Analytic (E, H) of a point electric dipole at `points` (N, 3): E is the
    Green-tensor column, H = curl E / (i k) = grad g x moment."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    E = np.array([dyadic_green(k, x, source) @ moment for x in pts])
    d = pts - np.asarray(source)[None, :]
    r = np.linalg.norm(d, axis=1)
    gp = np.exp(1j * k * r) / (4.0 * np.pi * r) * (1j * k - 1.0 / r)
    return E, np.cross((gp / r)[:, None] * d, np.asarray(moment)[None, :])


def pde_residual(E: np.ndarray, grid: Grid3, k: float, medium: MediumSpec,
                 source: np.ndarray) -> float:
    """||curl curl E - k^2 n E - source|| / ||source|| on the interior of the
    grid, for samples (3,) + grid.dims, curls by compact 4th-order stencils;
    the 5-cell outer collar, where the stencil wraps and the box truncates
    the radiating field, is left out."""
    h = grid.spacing
    n_grid = 1.0 - evaluate_on_grid(medium, grid)
    res = curl_grid(curl_grid(E, h), h) - k ** 2 * n_grid[None] * E - source
    return float(np.linalg.norm(res[:, 5:-5, 5:-5, 5:-5]) / np.linalg.norm(source))


def remainder_split(sol: CgoSolution) -> tuple[np.ndarray, np.ndarray]:
    """f (nx, ny, nz) and V (3, nx, ny, nz) of the split W = f zeta + V of a
    CGO correction by the pointwise minimal-norm (Hermitian) projection
    f = W . conj(zeta)/|zeta|^2, V = W - f zeta, which keeps both parts
    within the remainder estimate; the bilinear projection does not, because
    the non-decaying part of W is parallel to zeta and |zeta| grows with t."""
    zh = np.conj(sol.zeta) / np.sum(np.abs(sol.zeta) ** 2)
    f = np.tensordot(zh, sol.W, axes=1)
    return f, sol.W - f[None] * sol.zeta[:, None, None, None]


def remainder_norm(sol: CgoSolution, radius: float) -> float:
    """||f||_L2 + ||V||_L2 of a CGO correction over the ball of `radius`."""
    f, V = remainder_split(sol)
    return (l2_norm(f, sol.grid, within_radius=radius)
            + l2_norm(V, sol.grid, within_radius=radius))


def plane_wave_on(zeta, eta, points):
    """(U, curl U) of the plane wave U = eta e^{i zeta . x} at points (N, 3),
    Cartesian, with curl U = i zeta x eta e^{i zeta . x}: the reference for
    the plane-wave part of `cgo.cgo_on_sphere`."""
    phase = np.exp(1j * (np.asarray(points) @ zeta))[:, None]
    return phase * eta[None, :], phase * np.cross(1j * zeta, eta)[None, :]


def boundary_functional(capacity, trace, u, curlu) -> complex:
    """-int_{dB_R} [i k T(E x nu) . U + (E x nu) . curl U] ds by the mesh
    quadrature, for a Cartesian trace E x nu and test data (U, curl U) at the
    capacity's mesh nodes (N, 3): integration by parts against U, written
    out in Cartesian components as the reference for
    `reconstruct.dual_functional_vector`."""
    integrand = 1j * capacity.k * np.sum(capacity.apply(trace) * u, axis=1)
    integrand += np.sum(trace * curlu, axis=1)
    return -complex(np.sum(capacity.mesh.weights * integrand))

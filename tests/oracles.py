"""Test-only oracles: identities the suite checks that `stochmaxwell verify`
does not probe. Each takes its probe data and returns the measured
quantity."""
import numpy as np

from stochmaxwell.cgo import CgoSolution
from stochmaxwell.forward import curl_grid
from stochmaxwell.geometry import MediumSpec, VectorFieldC3, evaluate_on_grid
from stochmaxwell.greens import FreeConvolver, dyadic_green, helmholtz_g


def helmholtz_residual(lam: float, x0, h: float) -> float:
    """|(Delta_h + lam^2) g(x0)| for the centred 7-point Laplacian of step h,
    O(h^2) away from the origin."""
    x0 = np.asarray(x0, dtype=np.float64)
    acc = -6.0 * helmholtz_g(lam, np.linalg.norm(x0))
    for ax in range(3):
        for sgn in (-1.0, 1.0):
            acc += helmholtz_g(lam, np.linalg.norm(x0 + sgn * h * np.eye(3)[ax]))
    return float(abs(acc / h ** 2 + lam ** 2 * helmholtz_g(lam, np.linalg.norm(x0))))


def resolvent_decay_probe(lams, f: VectorFieldC3) -> list[tuple[float, float]]:
    """(lam, ||chi R0(lam) chi f|| / ||f||) on the grid box for each lam; lam
    times the ratio stays bounded (1/|lam| decay of the cut-off resolvent)."""
    return [(lam, FreeConvolver(lam, f.grid).apply(f).l2_norm() / f.l2_norm()) for lam in lams]


def electric_dipole_field(k: float, source, moment, points):
    """Analytic (E, H) of a point electric dipole at `points` (N, 3): E is the
    Green-tensor column, H = curl E / (i k) = grad g x moment."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    E = np.array([dyadic_green(k, x, source) @ moment for x in pts])
    d = pts - np.asarray(source)[None, :]
    r = np.linalg.norm(d, axis=1)
    gp = np.exp(1j * k * r) / (4.0 * np.pi * r) * (1j * k - 1.0 / r)
    return E, np.cross((gp / r)[:, None] * d, np.asarray(moment)[None, :])


def pde_residual(E: VectorFieldC3, k: float, medium: MediumSpec, source: VectorFieldC3) -> float:
    """||curl curl E - k^2 n E - source|| / ||source|| on the interior, curls
    by compact 4th-order stencils; the 5-cell outer collar, where the stencil
    wraps and the box truncates the radiating field, is left out."""
    h = E.grid.spacing
    n_grid = 1.0 - evaluate_on_grid(medium, E.grid).values.real
    res = curl_grid(curl_grid(E.values, h), h) - k ** 2 * n_grid[None] * E.values - source.values
    return float(np.linalg.norm(res[:, 5:-5, 5:-5, 5:-5]) / np.linalg.norm(source.values))


def remainder_norm(sol: CgoSolution, radius: float) -> float:
    """||f||_L2 + ||V||_L2 of a CGO correction over the ball of `radius`."""
    return sol.f.l2_norm(within_radius=radius) + sol.V.l2_norm(within_radius=radius)

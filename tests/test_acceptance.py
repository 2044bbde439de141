"""Desk-scale acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line with
the measured quantity (run with -s to see the lines as they happen; pytest -v
shows one verdict per criterion either way).
"""
import json
import os

import numpy as np
import pytest

from stochmaxwell.cgo import build_zeta_eta, solve_cgo_remainder
from stochmaxwell.cli import main
from stochmaxwell.ensemble import generate_ensemble
from stochmaxwell.forward import HomogeneousTraceMap, MaxwellSolver, noise_amplitude, noise_values
from stochmaxwell.geometry import (
    Bump,
    Grid3,
    MediumSpec,
    SourceStrength,
    evaluate_on_grid,
)
from stochmaxwell.reconstruct import reconstruct_sigma, stability_sweep
from stochmaxwell.verify import (
    capacity_identity,
    cgo_residual,
    convolution_vs_direct,
    green_reciprocity,
    ibp_identity,
    ito_isometry,
    multipoles,
    plane_waves,
)

from conftest import K_DESK, RP_DESK, rel_err
from oracles import (
    electric_dipole_field,
    helmholtz_residual,
    pde_residual,
    remainder_norm,
    resolvent_decay_probe,
)

PDE_RESIDUAL_CONSTANT = 10.0  # frozen envelope constant for criterion 3
M2_FROZEN = 0.5  # frozen remainder constant for criterion 7

BIG_M = 10_000
BIG_SEED = 1234


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return Grid3.for_ball(RP_DESK, 33)


@pytest.fixture(scope="module")
def desk_sigma():
    # single wide bump: most of its spectrum sits inside the low-pass ball
    return SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)


@pytest.fixture(scope="module")
def hom_medium():
    return MediumSpec(ball_radius=1.0)


@pytest.fixture(scope="module")
def big_ensemble(grid, desk_sigma, hom_medium, desk_capacity):
    """10^4 boundary-trace realizations through the program's ensemble path,
    as frame components."""
    mesh = desk_capacity.mesh
    return mesh.to_frame(generate_ensemble(K_DESK, hom_medium, desk_sigma, grid, mesh, BIG_M,
                                           BIG_SEED))


class TestCriterion1GreenKernel:
    def test_identities(self):
        rng = np.random.default_rng(100)
        worst = green_reciprocity(K_DESK, rng, 100, 0.05)
        # (Delta + lam^2) g = 0 off the origin: centered residual O(h^2)
        res = [helmholtz_residual(3.0, [0.4, 0.3, -0.2], h) for h in (1e-2, 5e-3)]
        second_order = res[1] < res[0] / 3.0
        conv_err = convolution_vs_direct(K_DESK, rng)

        ok = worst <= 1e-12 and second_order and conv_err <= 1e-2
        report(
            1,
            ok,
            f"reciprocity {worst:.1e} (<=1e-12), residual order "
            f"{res[0]:.1e}->{res[1]:.1e}, convolution err {conv_err:.1e} (<=1e-2)",
        )


class TestCriterion2ResolventDecay:
    def test_lambda_scaled_norm(self):
        # lambda = 32 needs the full 32^3 desk grid to stay resolved
        g = Grid3.cube(1.0, 32)
        x, y, z = g.nodes()
        ratio_max = 0.0
        ratio_min = np.inf
        probes = [
            np.exp(-(x ** 2 + y ** 2 + z ** 2) / (2 * 0.3 ** 2)),
            x * np.exp(-(x ** 2 + y ** 2 + z ** 2) / (2 * 0.35 ** 2)),
            np.cos(2 * x) * np.exp(-(x ** 2 + y ** 2 + z ** 2) / (2 * 0.4 ** 2)),
        ]
        for prof in probes:
            f = np.stack([prof, 0.5 * prof, -0.2 * prof]) + 0j
            scaled = [lam * r for lam, r in resolvent_decay_probe([4.0, 8.0, 16.0, 32.0], f, g)]
            ratio_max = max(ratio_max, max(scaled))
            ratio_min = min(ratio_min, min(scaled))
        ok = ratio_max / ratio_min <= 3.0
        report(2, ok, f"lambda-scaled resolvent spread {ratio_max / ratio_min:.2f} (<=3)")


class TestCriterion3ForwardSolver:
    def test_dipole_and_residual(self, grid, hom_medium):
        c = grid.dims[0] // 2
        src_pos = grid.nodes()[:, c, c, c]
        p = np.array([0.3, -1.0, 0.5])
        src = np.zeros((3,) + grid.dims, dtype=np.complex128)
        src[:, c, c, c] = 1j * K_DESK * p / grid.cell_volume
        solver = MaxwellSolver(K_DESK, hom_medium, grid)
        sol = solver.solve(src)
        probe_idx = (c + 7, c, c)
        x = grid.nodes()[(slice(None),) + probe_idx]
        E_ref, _ = electric_dipole_field(K_DESK, src_pos, p, np.array([x]))
        dip_err = rel_err(sol.field[(slice(None),) + probe_idx], E_ref[0])

        x, y, z = grid.nodes()
        prof = np.exp(-(x ** 2 + y ** 2 + z ** 2) / (2 * 0.35 ** 2))
        smooth = np.stack([prof, np.zeros_like(prof), 0.4 * prof]) + 0j
        tol = 1e-10
        sol2 = solver.solve(smooth, tol=tol)
        res = pde_residual(sol2.field, grid, K_DESK, hom_medium, smooth)
        bound = max(10 * tol, PDE_RESIDUAL_CONSTANT * grid.spacing ** 2)

        ok = dip_err <= 2e-2 and res <= bound
        report(
            3,
            ok,
            f"dipole err {dip_err:.3f} (<=0.02), residual {res:.2e} (<= {bound:.2e})",
        )


class TestCriterion4CapacityOperator:
    def test_multipole_and_dipole(self, desk_basis, desk_capacity):
        mesh = desk_basis.mesh
        modes = [(l, m) for l in range(1, mesh.lmax + 1) for m in range(-l, l + 1)]
        fields = multipoles(K_DESK, mesh.nodes, modes)
        worst = max(rel_err(got, want) for got, want in capacity_identity(desk_capacity, fields))

        src = np.array([0.2, -0.1, 0.15])
        p = np.array([0.4, 1.0, -0.3])
        dipole = electric_dipole_field(K_DESK, src, p, mesh.nodes)
        dip = rel_err(*capacity_identity(desk_capacity, [dipole])[0])

        ok = worst <= 1e-10 and dip <= 1e-6
        report(4, ok, f"multipole identity {worst:.1e} (<=1e-10), dipole {dip:.1e} (<=1e-6)")


class TestCriterion5IntegralIdentity:
    def test_boundary_equals_volume(self, grid, desk_capacity):
        k = K_DESK
        mesh = desk_capacity.mesh
        x, y, z = grid.nodes()
        prof = np.exp(-((x - 0.05) ** 2 + y ** 2 + (z + 0.1) ** 2) / (2 * 0.25 ** 2))
        prof = prof * (np.sqrt(x ** 2 + y ** 2 + z ** 2) < 0.85)
        J = np.stack([prof, 0.3 * prof, -0.6 * prof]).astype(complex)
        mask = prof > 0
        trace = HomogeneousTraceMap(k, grid, mask, mesh).traces(J[:, mask].T[None])[0]
        waves = plane_waves(np.random.default_rng(55), k, 5)
        worst = ibp_identity(desk_capacity, grid, 1j * k * J, trace, waves)
        ok = worst <= 1e-2
        report(5, ok, f"boundary vs volume functional {worst:.1e} (<=1e-2)")


class TestCriterion6ItoIsometry:
    def test_three_cgo_pairs(self, grid, desk_sigma):
        """E[(int J.U1)(int J.U2)] equals int sigma U1.U2 within 3 standard
        errors for three conjugate CGO pairs at M = 10^4."""
        xis = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.5], [2.0, 0.0, 1.0]])
        zeta, eta, _ = build_zeta_eta(xis, 5.0, K_DESK)
        worst = float(np.max(ito_isometry(K_DESK, desk_sigma, grid, zeta, eta, BIG_SEED, BIG_M)))
        ok = worst <= 3.0
        report(6, ok, f"worst isometry deviation {worst:.2f} standard errors (<=3)")


class TestCriterion7CgoCertification:
    def test_residuals_remainder_bound_and_decay(self, grid, hom_medium):
        xi0 = np.array([1.0, 0.0, 0.5])
        hom_residual = cgo_residual(xi0, 5.0, K_DESK, hom_medium, grid, members=(1,))[0]
        hom_ok = hom_residual <= 1e-10

        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
        directions = [
            np.array(v)
            for v in ([1, 0, 0], [0, 1, 0], [0.6, 0.6, 0.3], [1, -1, 0.5], [0, 0.4, -1])
        ]
        worst_bound = 0.0
        points = 0
        for d in directions:
            for t, scale in ((3.0, 0.5), (4.0, 1.0), (5.0, 1.5), (6.0, 2.0)):
                xi = scale * d / np.linalg.norm(d)
                sol = solve_cgo_remainder(xi, t, K_DESK, 1, medium, grid)
                b = float(np.linalg.norm(sol.zeta.imag))
                bound = M2_FROZEN * float(np.linalg.norm(sol.eta)) / b
                worst_bound = max(worst_bound, remainder_norm(sol, 1.0) / bound)
                points += 1

        decay = []
        for t in (5.0, 10.0):
            sol = solve_cgo_remainder(np.array([0.5, 0.0, 0.0]), t, K_DESK, 1, medium, grid)
            decay.append(remainder_norm(sol, 1.0))
        decay_ratio = decay[0] / decay[1]

        ok = hom_ok and worst_bound <= 1.0 and points >= 20 and decay_ratio >= 1.5
        report(
            7,
            ok,
            f"m=0 residual {hom_residual:.1e} (<=1e-10), remainder/bound "
            f"{worst_bound:.3f} (<=1, {points} points, M2={M2_FROZEN}), "
            f"decay per t-doubling {decay_ratio:.2f} (>=1.5)",
        )


class TestCriterion8EndToEnd:
    def test_reconstruction_error(
        self, big_ensemble, grid, desk_sigma, hom_medium, desk_capacity
    ):
        errs = []
        for M in (100, 1000, BIG_M):
            result = reconstruct_sigma(
                big_ensemble[:M],
                desk_capacity,
                R_prime=RP_DESK,
                medium=hom_medium,
                grid=grid,
                t_max=8.0,
                rho_override=5.0,
                n_frames=8,
                ground_truth=desk_sigma,
            )
            assert result.t <= 8.0
            errs.append(result.rel_l2_error)
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        ok = errs[-1] <= 0.5 and decreasing
        report(
            8,
            ok,
            "rel L2 error "
            + " -> ".join(f"{e:.3f}" for e in errs)
            + f" over M=100,1000,10000 (final <=0.5, strictly decreasing)",
        )


class TestCriterion9StabilityInequality:
    def test_check_quantity_bounded_and_epsilon_quadratic(
        self, grid, desk_sigma, hom_medium, desk_capacity
    ):
        mesh = desk_capacity.mesh
        sig_grid = evaluate_on_grid(desk_sigma, grid)
        mask = sig_grid > 0
        tmap = HomogeneousTraceMap(K_DESK, grid, mask, mesh)
        M = 200

        def factory(alpha):
            J = np.empty((M, tmap.n_cells, 3))
            scaled = alpha * sig_grid
            for r in range(M):
                J[r] = noise_values(noise_amplitude(scaled, grid.spacing), BIG_SEED, r)[:, mask].T
            return tmap.traces(J)

        alphas = (1.0, 0.1, 0.01, 0.001)
        rows = stability_sweep(
            factory,
            desk_sigma,
            desk_capacity,
            R_prime=RP_DESK,
            medium=hom_medium,
            grid=grid,
            alphas=alphas,
            t_max=8.0,
            n_frames=2,
        )
        eps = {row["alpha"]: row["epsilon"] for row in rows}
        quad_dev = max(
            abs((eps[a] / eps[1.0]) / a ** 2 - 1.0) for a in alphas if a != 1.0
        )
        check = [row["check_quantity"] for row in rows]
        spread = max(check) / min(check)
        ok = quad_dev <= 0.2 and spread <= 10.0
        report(
            9,
            ok,
            f"eps-vs-alpha^2 deviation {quad_dev:.2g} (<=0.2), check-quantity "
            f"spread {spread:.2f} (<=10)",
        )


SMALL_CONFIG = """
[physics]
k = 2.0
R = 1.0
R_prime = 1.3

[grid]
n = 25

[source]
bumps = 0 0.1 0 0.5 0.2

[ensemble]
realizations = 20
master_seed = 99

[stability]
lmax = 8

[reconstruction]
rho_override = 1.5
n_frames = 1
"""


class TestCriterion10Reproducibility:
    def test_reruns_bit_identical(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(SMALL_CONFIG)
        digests = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["forward", "--config", str(cfg_path), "--out", out]) == 0
            assert main(["reconstruct", "--config", str(cfg_path), "--out", out]) == 0
            blobs = {}
            for sub in ("ensemble", "reconstruction"):
                d = os.path.join(out, sub)
                for f in sorted(os.listdir(d)):
                    with open(os.path.join(d, f), "rb") as fh:
                        blobs[f"{sub}/{f}"] = fh.read()
            digests.append(blobs)
        identical = digests[0] == digests[1]
        m = json.loads(digests[0]["ensemble/manifest.json"])
        report(
            10,
            identical,
            f"two pipeline reruns bit-identical (ensemble hash {m['hash'][:12]})",
        )

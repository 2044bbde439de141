"""Command-line orchestration: forward ensembles, deterministic verification,
reconstruction, and stability sweeps.

Every run directory is reproducible from its manifest: the manifest embeds
the full config text and the master seed, and no output carries timestamps,
so reruns are bit-identical.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .capacity import CapacityOperator, boundary_functional, radiating_multipole
from .cgo import build_zeta_eta, cgo_product_remainder, cgo_on_sphere, solve_cgo_remainder
from .config import ExperimentConfig
from .ensemble import generate_ensemble, manifest_hash, read_ensemble, write_ensemble
from .forward import MaxwellSolver, SolverError, noise_values
from .geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    VectorFieldC3,
    evaluate_on_grid,
    write_field,
)
from .greens import FreeConvolver, dyadic_green
from .reconstruct import reconstruct_sigma, stability_sweep
from .sphharm import VshBasis

__all__ = ["main", "run_forward", "run_verify", "run_reconstruct", "run_sweep"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _capacity(cfg: ExperimentConfig, fault: bool = False) -> CapacityOperator:
    basis = VshBasis(cfg.mesh(), cfg.lmax)
    scale = cfg.fault_scale if fault else 1.0
    return CapacityOperator(cfg.k, basis, fault_scale=scale)


def _ensemble_manifest(cfg: ExperimentConfig) -> dict:
    return {
        "kind": "trace-ensemble",
        "config_text": cfg.to_text(),
        "physics": cfg.physics_block(),
    }


def run_forward(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Generate the trace ensemble and persist it with its manifest."""
    traces = generate_ensemble(
        cfg.k,
        cfg.medium(),
        cfg.source(),
        cfg.grid(),
        cfg.mesh(),
        cfg.realizations,
        cfg.master_seed,
        workers=workers,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    return write_ensemble(out_dir, traces, _ensemble_manifest(cfg))


def _verify_checks(cfg: ExperimentConfig):
    """Deterministic oracle checks; yields (name, measured, threshold, passed)."""
    k = cfg.k
    rng = np.random.default_rng(2024)

    # Green tensor reciprocity G(x, y) = G(y, x)^T
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-1.0, 1.0, (2, 3))
        if np.linalg.norm(x - y) < 0.1:
            continue
        G1 = dyadic_green(k, x, y)
        G2 = dyadic_green(k, y, x)
        worst = max(worst, float(np.max(np.abs(G1 - G2.T))))
    yield "green_reciprocity", worst, 1e-12, worst <= 1e-12

    # FFT convolution against direct summation at exterior probes
    grid = Grid3.cube(1.0, 24)
    f = np.zeros((3,) + grid.dims, dtype=np.complex128)
    c = grid.dims[0] // 2
    f[:, c - 2 : c + 2, c - 2 : c + 2, c - 2 : c + 2] = rng.standard_normal(
        (3, 4, 4, 4)
    ) + 1j * rng.standard_normal((3, 4, 4, 4))
    conv = FreeConvolver(k, grid).apply_array(f)
    nodes = grid.nodes()
    sup = np.abs(f).sum(axis=0) > 0
    ys = nodes[:, sup].T
    fy = f[:, sup].T
    h3 = grid.cell_volume
    worst = 0.0
    for _ in range(10):
        idx = tuple(rng.integers(0, 4, 3))  # corner region, far from the support
        x = nodes[(slice(None),) + idx]
        direct = sum(dyadic_green(k, x, y) @ v for y, v in zip(ys, fy)) * h3
        err = np.linalg.norm(conv[(slice(None),) + idx] - direct) / np.linalg.norm(direct)
        worst = max(worst, float(err))
    yield "convolution_vs_direct", worst, 1e-2, worst <= 1e-2

    # capacity multipole identity T_M(E x nu) = H x nu (fault scale applied:
    # a perturbed operator must fail here and in the ibp check below)
    cap = _capacity(cfg, fault=True)
    mesh = cap.basis.mesh
    worst = 0.0
    for l in range(1, cfg.lmax + 1):
        for kind in ("te", "tm"):
            E, H = radiating_multipole(kind, l, min(1, l), k, mesh.nodes)
            lhs = cap.apply(np.cross(E, mesh.normals))
            rhs = np.cross(H, mesh.normals)
            worst = max(
                worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
            )
    yield "capacity_multipole_identity", worst, 1e-10, worst <= 1e-10

    # integration-by-parts identity: boundary functional vs volume pairing
    grid = cfg.grid()
    medium = MediumSpec(ball_radius=cfg.R)
    sig = SourceStrength((Bump((0.0, 0.1, 0.0), 0.5, 0.1),), ball_radius=cfg.R)
    prof = evaluate_on_grid(sig, grid).values
    src = np.zeros((3,) + grid.dims, dtype=np.complex128)
    src[0] = prof
    src[2] = 0.5 * prof
    source = VectorFieldC3(grid, src)
    trace = MaxwellSolver(k, medium, grid).solve(source, mesh=mesh).trace
    tm_vals = cap.apply(trace.values)
    nodes = grid.nodes()
    worst = 0.0
    for j in range(5):
        d = rng.standard_normal(3)
        d *= k / np.linalg.norm(d)
        eta = rng.standard_normal(3)
        eta -= d * (d @ eta) / k ** 2
        phase = np.exp(1j * np.tensordot(d, nodes, axes=1))
        vol = np.sum(src * phase[None] * eta[:, None, None, None]) * grid.cell_volume
        U = np.exp(1j * mesh.nodes @ d)[:, None] * eta[None, :]
        curlU = np.exp(1j * mesh.nodes @ d)[:, None] * np.cross(1j * d, eta)[None, :]
        bnd = boundary_functional(trace.values, tm_vals, U, curlU, k, mesh)
        worst = max(worst, float(abs(bnd - vol) / abs(vol)))
    yield "ibp_identity", worst, 1e-2, worst <= 1e-2

    # CGO certification: exact for m = 0, converged fixed point otherwise,
    # and the conjugate product identity
    params = build_zeta_eta(np.array([1.0, 0.0, 0.5]), 5.0, k)
    sol_h = solve_cgo_remainder(params, 1, medium, grid, tol=cfg.tol)
    yield "cgo_homogeneous_residual", sol_h.residual, 1e-10, sol_h.residual <= 1e-10
    bumpy = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=cfg.R)
    s1 = solve_cgo_remainder(params, 1, bumpy, grid, tol=cfg.tol)
    s2 = solve_cgo_remainder(params, 2, bumpy, grid, tol=cfg.tol)
    worst = max(s1.residual, s2.residual)
    yield "cgo_contrast_residual", worst, 10 * cfg.tol, worst <= 10 * cfg.tol
    lead, rem = cgo_product_remainder(s1, s2)
    prod = np.sum(s1.amplitude() * s2.amplitude(), axis=0)
    err = float(np.max(np.abs(prod - (lead + rem.values))))
    yield "cgo_product_identity", err, 1e-10, err <= 1e-10

    # discrete Ito isometry on a small ensemble
    sig_grid = evaluate_on_grid(sig, grid).values.real
    M = 400
    h3 = grid.cell_volume
    U1, _ = cgo_on_sphere(sol_h, mesh)
    params2 = params
    sol_h2 = solve_cgo_remainder(params2, 2, medium, grid, tol=cfg.tol)
    coords = grid.nodes()
    ph1 = np.exp(1j * np.tensordot(sol_h.zeta, coords, axes=1))
    ph2 = np.exp(1j * np.tensordot(sol_h2.zeta, coords, axes=1))
    u1 = ph1[None] * sol_h.eta[:, None, None, None]
    u2 = ph2[None] * sol_h2.eta[:, None, None, None]
    prods = np.empty(M, dtype=np.complex128)
    for r in range(M):
        J = noise_values(sig_grid, grid.spacing, cfg.master_seed, r)
        B1 = 1j * k * h3 * np.sum(J * u1)
        B2 = 1j * k * h3 * np.sum(J * u2)
        prods[r] = B1 * B2
    target = -(k ** 2) * np.sum(sig_grid * (u1 * u2).sum(axis=0)) * h3
    stderr = float(np.std(prods, ddof=1) / np.sqrt(M))
    dev = float(abs(prods.mean() - target))
    yield "ito_isometry", dev / stderr, 3.0, dev <= 3.0 * stderr


def run_verify(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    checks = []
    for name, measured, threshold, passed in _verify_checks(cfg):
        checks.append(
            {
                "name": name,
                "measured": float(measured),
                "threshold": float(threshold),
                "passed": bool(passed),
            }
        )
    report = {"kind": "verification-report", "fault_scale": cfg.fault_scale, "checks": checks}
    ok = all(c["passed"] for c in checks)
    report["passed"] = ok
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "verify.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, ok


def run_reconstruct(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Reconstruct sigma from the ensemble under <out>/ensemble (generated on
    demand when absent) and persist CSV, binary field, and manifest."""
    ens_dir = os.path.join(out_dir, "ensemble")
    if os.path.exists(os.path.join(ens_dir, "manifest.json")):
        traces, manifest = read_ensemble(ens_dir)
        if manifest["physics"] != cfg.physics_block():
            raise ConfigurationError(
                "stored ensemble does not match the config physics block"
            )
    else:
        manifest = run_forward(cfg, ens_dir, workers)
        traces, _ = read_ensemble(ens_dir)

    cap = _capacity(cfg)
    result = reconstruct_sigma(
        traces,
        cap,
        k=cfg.k,
        R_prime=cfg.R_prime,
        medium=cfg.medium(),
        grid=cfg.grid(),
        constants=cfg.constants(),
        t_max=cfg.t_max,
        rho_override=cfg.rho_override,
        n_frames=cfg.n_frames,
        ground_truth=cfg.source() if cfg.source_bumps else None,
        cgo_tol=cfg.tol,
    )

    rec_dir = os.path.join(out_dir, "reconstruction")
    os.makedirs(rec_dir, exist_ok=True)
    with open(os.path.join(rec_dir, "sigma_hat.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi_x", "xi_y", "xi_z", "re_sigma_hat", "im_sigma_hat", "stderr"])
        for xi, sh, se in zip(result.xi_nodes, result.sigma_hat, result.stderr):
            w.writerow(
                [f"{xi[0]:.12g}", f"{xi[1]:.12g}", f"{xi[2]:.12g}",
                 f"{sh.real:.12g}", f"{sh.imag:.12g}", f"{se:.12g}"]
            )
    write_field(os.path.join(rec_dir, "sigma_rec.bin"), result.sigma_rec)
    run_manifest = {
        "kind": "reconstruction",
        "config_text": cfg.to_text(),
        "ensemble_hash": manifest["hash"],
        "parameters": {
            "t": result.t,
            "rho": result.rho,
            "dxi": result.dxi,
            "epsilon": result.epsilon,
            "M": result.sample_count,
            "s": cfg.s,
            "M2": cfg.M2,
            "n_frames": cfg.n_frames,
        },
        "imag_residue": result.imag_residue,
        "errors": {
            "l2": result.l2_error,
            "linf": result.linf_error,
            "rel_l2": result.rel_l2_error,
        },
    }
    run_manifest["hash"] = manifest_hash(run_manifest)
    with open(os.path.join(rec_dir, "manifest.json"), "w") as fh:
        json.dump(run_manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_manifest


def run_sweep(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> list:
    """Source-strength sweep: regenerate the ensemble per alpha and tabulate
    the logarithmic-stability check quantity."""
    cap = _capacity(cfg)

    def factory(alpha):
        scaled = replace(
            cfg,
            source_bumps=tuple(
                replace(b, amplitude=b.amplitude * alpha) for b in cfg.source_bumps
            ),
        )
        return generate_ensemble(
            scaled.k,
            scaled.medium(),
            scaled.source(),
            scaled.grid(),
            scaled.mesh(),
            scaled.realizations,
            scaled.master_seed,
            workers=workers,
            tol=scaled.tol,
            max_iter=scaled.max_iter,
        )

    rows = stability_sweep(
        factory,
        cfg.source(),
        cap,
        k=cfg.k,
        R_prime=cfg.R_prime,
        medium=cfg.medium(),
        grid=cfg.grid(),
        alphas=cfg.alphas,
        constants=cfg.constants(),
        t_max=cfg.t_max,
        rho_override=cfg.rho_override,
        n_frames=cfg.n_frames,
        cgo_tol=cfg.tol,
    )
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "epsilon", "sigma_l2", "rel_l2_error", "check_quantity"])
        for row in rows:
            w.writerow(
                [f"{row['alpha']:.12g}", f"{row['epsilon']:.12g}",
                 f"{row['sigma_l2']:.12g}", f"{row['rel_l2_error']:.12g}",
                 f"{row['check_quantity']:.12g}"]
            )
    return rows


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stochmaxwell",
        description="Stochastic Maxwell source-reconstruction laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("forward", "generate a white-noise trace ensemble"),
        ("verify", "run the deterministic verification suite"),
        ("reconstruct", "reconstruct the source strength from an ensemble"),
        ("sweep", "stability sweep over source scalings"),
    ):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, help="INI config file")
        q.add_argument("--out", default=None, help="output directory (default from config)")
        q.add_argument("--workers", type=int, default=1)
        q.add_argument("--seed", type=int, default=None, help="master seed override")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        out = args.out if args.out is not None else cfg.output_dir
        if args.command == "forward":
            manifest = run_forward(cfg, os.path.join(out, "ensemble"), args.workers)
            print(f"wrote {manifest['realizations']} traces, hash {manifest['hash'][:16]}")
        elif args.command == "verify":
            report, ok = run_verify(cfg, out)
            for c in report["checks"]:
                state = "pass" if c["passed"] else "FAIL"
                print(f"{state}  {c['name']}: {c['measured']:.3e} (<= {c['threshold']:.1e})")
            if not ok:
                return EXIT_VERIFY
        elif args.command == "reconstruct":
            manifest = run_reconstruct(cfg, out, args.workers)
            err = manifest["errors"]["rel_l2"]
            msg = f"rel L2 error {err:.3f}" if err is not None else "no ground truth"
            print(f"reconstruction done ({msg}), hash {manifest['hash'][:16]}")
        elif args.command == "sweep":
            rows = run_sweep(cfg, out, args.workers)
            for row in rows:
                print(
                    f"alpha={row['alpha']:g} eps={row['epsilon']:.3e} "
                    f"check={row['check_quantity']:.4g}"
                )
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

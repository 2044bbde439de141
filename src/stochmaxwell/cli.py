"""Command-line orchestration: forward ensembles, deterministic verification,
reconstruction, and stability sweeps.

Every run directory is reproducible from its manifest: the manifest embeds
the full config text and the master seed, and no output carries timestamps,
so reruns are bit-identical.

Exit codes: 0 success, 2 configuration error (or an output directory that
cannot be written), 3 solver failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from . import verify
from .capacity import CapacityOperator
from .cgo import build_zeta_eta
from .config import ExperimentConfig
from .ensemble import generate_ensemble, manifest_hash, read_ensemble, write_ensemble
from .forward import HomogeneousTraceMap, SolverError
from .geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    evaluate_on_grid,
    write_field,
)
from .reconstruct import reconstruct_sigma, stability_sweep

__all__ = ["main", "run_forward", "run_verify", "run_reconstruct", "run_sweep"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _capacity(cfg: ExperimentConfig, fault: bool = False) -> CapacityOperator:
    """The capacity operator on the config's mesh; Hankel values that overflow
    at k R are a degree cutoff the config must lower."""
    scale = cfg.fault_scale if fault else 1.0
    try:
        return CapacityOperator(cfg.k, cfg.mesh(), fault_scale=scale)
    except OverflowError as exc:
        raise ConfigurationError(
            f"[stability] lmax = {cfg.lmax} is too high for k R = {cfg.k * cfg.R:.3g}: {exc}"
        ) from exc


def _traces(cfg: ExperimentConfig) -> np.ndarray:
    return generate_ensemble(
        cfg.k, cfg.medium(), cfg.source(), cfg.grid(), cfg.mesh(), cfg.realizations,
        cfg.master_seed, tol=cfg.tol, max_iter=cfg.max_iter,
    )


def _check_realizations(cfg: ExperimentConfig) -> None:
    """Refuse, before any draw, an ensemble too small to estimate the kernels."""
    if cfg.realizations < 2:
        raise ConfigurationError(
            f"[ensemble] realizations must be at least 2 to reconstruct, got {cfg.realizations}")


def _recon_args(cfg: ExperimentConfig) -> dict:
    """The reconstruction arguments of `sweep` (`reconstruct` names them)."""
    return dict(
        R_prime=cfg.R_prime, medium=cfg.medium(), grid=cfg.grid(),
        s=cfg.s, M1=cfg.M1, t_max=cfg.t_max, rho_override=cfg.rho_override,
        n_frames=cfg.n_frames, tol=cfg.tol, max_iter=cfg.max_iter,
    )


def _write_csv(path: str, header: list, rows) -> None:
    """One header line, then each row of numbers in `.12g`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.12g}" for v in row] for row in rows)


def run_forward(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Generate the trace ensemble and persist it with its manifest."""
    manifest = {
        "kind": "trace-ensemble",
        "config_text": cfg.to_text(),
        "physics": cfg.physics_block(),
    }
    return write_ensemble(out_dir, _traces(cfg), manifest)


def _sup_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)))


def _verify_table(cfg: ExperimentConfig) -> list:
    """The verify probes as (name, oracle call, threshold) rows in report
    order. The rows draw from one rng and the two contrast rows share one
    solved CGO pair, so they run in this order."""
    k, grid, tol = cfg.k, cfg.grid(), cfg.tol
    rng = np.random.default_rng(2024)
    # fault scale applied: a perturbed operator must fail the capacity and
    # ibp checks
    cap = _capacity(cfg, fault=True)
    mesh = cap.mesh
    medium = MediumSpec(ball_radius=cfg.R)
    bumpy = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=cfg.R)
    sig = SourceStrength((Bump((0.0, 0.1, 0.0), 0.5, 0.1),), ball_radius=cfg.R)
    xi, t = np.array([1.0, 0.0, 0.5]), 5.0
    zeta, eta, _ = build_zeta_eta(xi, t, k)
    # the plane-wave probe scales with k, so |zeta| h and the stencil error do not
    pw_zeta, pw_eta, _ = build_zeta_eta(0.5 * k * xi, 1.25 * k, k)
    pw_grid = Grid3.cube(2.0 / k, 33)
    residual = functools.partial(verify.cgo_residual, tol=tol, max_iter=cfg.max_iter)
    contrast = functools.cache(lambda: residual(xi, t, k, bumpy, grid))

    def capacity():
        fields = verify.multipoles(k, mesh.nodes, [(l, 1) for l in range(1, cfg.lmax + 1)])
        pairs = verify.capacity_identity(cap, fields)
        return max(_sup_gap(got, want) / np.max(np.abs(want)) for got, want in pairs)

    def ibp():
        prof = evaluate_on_grid(sig, grid)
        J, mask = np.stack([prof, np.zeros_like(prof), 0.5 * prof]), prof != 0
        trace = HomogeneousTraceMap(k, grid, mask, mesh).traces(J[:, mask].T[None])[0]
        return verify.ibp_identity(cap, grid, 1j * k * J, trace, verify.plane_waves(rng, k, 5))

    return [
        ("green_reciprocity", lambda: verify.green_reciprocity(k, rng, 100, 0.1), 1e-12),
        ("green_hessian_fd",
         lambda: verify.green_hessian_fd(k, (0.3, -0.2, 0.5), (-0.1, 0.2, 0.1), 1e-4), 1e-6),
        ("green_near_cell",
         lambda: verify.near_cell_probe(k, Grid3.cube(1.0, 12), np.array([1.0, 0.5j, -0.25]),
                                        [(1, 0, 0), (2, -1, 3)]), 1e-6),
        ("convolution_vs_direct", lambda: verify.convolution_vs_direct(k, rng), 1e-2),
        ("capacity_multipole_identity", capacity, 1e-10),
        ("ibp_identity", ibp, 1e-2),
        ("cgo_homogeneous_residual",
         lambda: residual(xi, t, k, medium, grid, members=(1,))[0], 1e-10),
        ("cgo_plane_wave_stencil",
         lambda: max(verify.cgo_stencil_residual(z, e, k, pw_grid)
                     for z, e in zip(pw_zeta, pw_eta)), 1e-3),
        ("cgo_contrast_residual", lambda: contrast()[0], 10 * tol),
        ("cgo_product_identity",
         lambda: _sup_gap(*verify.cgo_product_identity(*contrast()[1])), 1e-10),
        ("ito_isometry",
         lambda: verify.ito_isometry(k, sig, grid, zeta[None], eta[None], cfg.master_seed, 400)[0],
         3.0),
    ]


def run_verify(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    checks = []
    for name, oracle, threshold in _verify_table(cfg):
        try:
            measured = float(oracle())
        except ConfigurationError as exc:
            raise ConfigurationError(f"verify check {name}: {exc}") from exc
        checks.append({"name": name, "measured": measured, "threshold": float(threshold),
                       "passed": measured <= threshold})
    report = {"kind": "verification-report", "fault_scale": cfg.fault_scale, "checks": checks}
    ok = all(c["passed"] for c in checks)
    report["passed"] = ok
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "verify.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, ok


def run_reconstruct(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Reconstruct sigma from the ensemble under <out>/ensemble (generated on
    demand when absent) and persist CSV, binary field, and manifest."""
    ens_dir = os.path.join(out_dir, "ensemble")
    if os.path.exists(os.path.join(ens_dir, "manifest.json")):
        traces, manifest = read_ensemble(ens_dir)
        if manifest.get("physics") != cfg.physics_block():  # a store without one matches nothing
            raise ConfigurationError(
                "stored ensemble does not match the config physics block"
            )
    else:
        _check_realizations(cfg)
        manifest = run_forward(cfg, ens_dir)
        traces, _ = read_ensemble(ens_dir)
    capacity = _capacity(cfg)
    traces = [capacity.mesh.to_frame(traces)]  # drops the Cartesian ensemble
    # popped, and named rather than unpacked (`**` keeps a reference): freed in `_moments`
    result = reconstruct_sigma(
        traces.pop(), capacity, cfg.R_prime, cfg.medium(), cfg.grid(), s=cfg.s, M1=cfg.M1,
        t_max=cfg.t_max, rho_override=cfg.rho_override, n_frames=cfg.n_frames, tol=cfg.tol,
        max_iter=cfg.max_iter, ground_truth=cfg.source() if cfg.source_bumps else None)

    rec_dir = os.path.join(out_dir, "reconstruction")
    os.makedirs(rec_dir, exist_ok=True)
    _write_csv(
        os.path.join(rec_dir, "sigma_hat.csv"),
        ["xi_x", "xi_y", "xi_z", "re_sigma_hat", "im_sigma_hat", "stderr"],
        [(*xi, sh.real, sh.imag, se)
         for xi, sh, se in zip(result.xi_nodes, result.sigma_hat, result.stderr)],
    )
    write_field(os.path.join(rec_dir, "sigma_rec.bin"), result.sigma_rec, cfg.grid())
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


def run_sweep(cfg: ExperimentConfig, out_dir: str) -> list:
    """Source-strength sweep: tabulate the logarithmic-stability check
    quantity per alpha. The seed law draws the same normals for every alpha
    and scales them by sqrt(alpha sigma), so one ensemble's frame components
    times sqrt(alpha) are those of the ensemble of alpha sigma."""
    _check_realizations(cfg)
    capacity = _capacity(cfg)
    frames = capacity.mesh.to_frame(_traces(cfg))  # the Cartesian ensemble is not kept
    rows = stability_sweep(lambda alpha: np.sqrt(alpha) * frames, cfg.source(), capacity,
                           alphas=cfg.alphas, **_recon_args(cfg))
    os.makedirs(out_dir, exist_ok=True)
    header = ["alpha", "epsilon", "sigma_l2", "rel_l2_error", "check_quantity"]
    _write_csv(os.path.join(out_dir, "sweep.csv"), header,
               [[row[name] for name in header] for row in rows])
    return rows


def _fft_workers(text: str) -> int:
    """--workers: the scipy.fft worker count of every stage, validated by
    scipy's own rule (not 0, not below minus the CPU count)."""
    n = int(text)
    try:
        with sfft.set_workers(n):
            return n
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        q.add_argument(
            "--workers", type=_fft_workers, default=1,
            help="scipy.fft worker count (default 1); -1 uses every CPU",
        )
        q.add_argument("--seed", type=int, default=None, help="master seed override")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        out = args.out if args.out is not None else cfg.output_dir
        with sfft.set_workers(args.workers):
            if args.command == "forward":
                manifest = run_forward(cfg, os.path.join(out, "ensemble"))
                print(f"wrote {manifest['realizations']} traces, hash {manifest['hash'][:16]}")
            elif args.command == "verify":
                report, ok = run_verify(cfg, out)
                for c in report["checks"]:
                    state = "pass" if c["passed"] else "FAIL"
                    print(f"{state}  {c['name']}: {c['measured']:.3e} (<= {c['threshold']:.1e})")
                if not ok:
                    return EXIT_VERIFY
            elif args.command == "reconstruct":
                manifest = run_reconstruct(cfg, out)
                err = manifest["errors"]["rel_l2"]
                msg = f"rel L2 error {err:.3f}" if err is not None else "no ground truth"
                print(f"reconstruction done ({msg}), hash {manifest['hash'][:16]}")
            elif args.command == "sweep":
                for row in run_sweep(cfg, out):
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
    except OSError as exc:  # a run directory that cannot be made, written or read
        print(f"cannot access run outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

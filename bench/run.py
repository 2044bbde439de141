"""Benchmark of the stochmaxwell pipeline, end to end and layer by layer.

    python3 bench/run.py --workload desk-large-ensemble --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`). Each round writes the workload's config, runs
`stochmaxwell forward` (one or more times) and then `stochmaxwell
reconstruct` in fresh single-threaded processes (through `bench/stage.py`), starts set-up-only
processes until the round has three set-up samples, and checks the outputs against the computations in
`bench/reference.py`. Times are CPU seconds of those processes.
Rounds repeat until `--seconds` have passed; every round runs the same
operations on the same seed. The last line of standard output is one JSON
object: with `--trace 0` the end-to-end metrics (medians over rounds), with
`--trace 1` the per-layer metrics of a run whose layers are wrapped by
`bench/tracer.py`. See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from tracer import self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
STAGE = os.path.join(HERE, "stage.py")

RUN_BUDGET_S = 165.0  # every process is started and ended inside this
# One thread per stage process: on a few shared cores a second BLAS or FFT
# thread waits on whatever else the host runs, so its times measure the host.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3     # set-up times per round: every stage, then set-up-only processes

DESK_CONFIG = """\
[physics]
k = 2.0
R = 1.0
R_prime = 1.3

[grid]
n = 33

[source]
bumps = 0 0 0 0.95 0.1

[ensemble]
realizations = 2000
master_seed = 0

[stability]
lmax = 12

[reconstruction]
t_max = 8.0
rho_override = 5.0
n_frames = 8
"""

INHOM_CONFIG = """\
[physics]
k = 2.0
R = 1.0
R_prime = 1.3

[grid]
n = 10

[medium]
bumps = 0 0.1 0 0.6 0.05

[source]
bumps = 0 0 0 0.95 0.1

[ensemble]
realizations = 400
master_seed = 0

[stability]
lmax = 12

[reconstruction]
t_max = 8.0
n_frames = 1
"""

# Shared physics of every workload: k, R, R', lmax and the centred source bump.
K, R, R_PRIME, LMAX = 2.0, 1.0, 1.3, 12
SOURCE_RADIUS, SOURCE_AMPLITUDE = 0.95, 0.1

# forward_runs: forward stages per round, forward_s is their median (for two,
# the mean). The inhomogeneous forward stage is short (about 4 s), and one
# sample of it spread by 10 % over ten runs.
WORKLOADS = {
    "desk-large-ensemble": dict(
        config=DESK_CONFIG, M=2000, n=33, workers=1, forward_runs=1,
        homogeneous=True, rel_l2_max=0.5,
    ),
    "inhom-reduced-grid": dict(
        config=INHOM_CONFIG, M=400, n=10, workers=1, forward_runs=2,
        homogeneous=False, rel_l2_max=None,
    ),
}

SIGMA_HAT_SHARE_DESK = 0.95   # share of xi within 3 standard errors
SIGMA_HAT_SHARE_INHOM = 0.90  # share of low-|xi| samples within 3 SE + allowance
REMAINDER_SUP = 0.02          # bound on sup |r| of the CGO product remainder
GREEN_SPOT_TOL = 1e-9         # direct summation vs stored trace, relative
TANGENTIAL_TOL = 1e-12


class Stage:
    """One finished process: exit code, marks, CPU seconds, peak RSS and its
    log paths."""

    def __init__(self, tag, spawn, exit_, rc, cpu_s, rss_mb, marks, err_path):
        self.tag, self.spawn, self.exit, self.rc = tag, spawn, exit_, rc
        self.cpu_s, self.rss_mb, self.marks, self.err_path = cpu_s, rss_mb, marks, err_path

    @property
    def ok(self) -> bool:
        with open(self.err_path, errors="replace") as fh:
            traceback = "Traceback (most recent call last)" in fh.read()
        return self.rc == 0 and not traceback and "rc" in self.marks

    @property
    def setup_s(self):
        """CPU seconds from process start to "ready" (imports, config)."""
        return self.marks.get("cpu_ready")

    @property
    def main_s(self) -> float:
        """CPU seconds of the entry point (the whole process if it had none)."""
        if "cpu_main_end" in self.marks:
            return self.marks["cpu_main_end"] - self.marks["cpu_main_start"]
        return self.cpu_s

    @property
    def wall_s(self) -> float:
        if "main_end" in self.marks:
            return self.marks["main_end"] - self.marks["main_start"]
        return self.exit - self.spawn


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(THREAD_ENV)
    return env


def run_process(tag, stage_args, rdir, deadline) -> Stage:
    """Start bench/stage.py, wait for it with its rusage, kill it at deadline."""
    timing = os.path.join(rdir, f"{tag}.timing.json")
    err_path = os.path.join(rdir, f"{tag}.stderr")
    cmd = [sys.executable, STAGE, "--timing", timing] + stage_args
    with open(os.path.join(rdir, f"{tag}.stdout"), "wb") as out, open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        exit_ = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    if os.path.exists(timing):
        with open(timing) as fh:
            marks = json.load(fh)
    return Stage(tag, spawn, exit_, proc.returncode, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, marks, err_path)


# -- output checks ---------------------------------------------------------


def check_outputs(wl: dict, seed: int, out_dir: str) -> tuple[list, float | None]:
    """Every check of one round as {name, ok, detail}, plus the rel-L2 error of
    sigma_rec.bin against the source bump. A check whose inputs are missing or
    malformed fails; the others still run."""
    ens_dir = os.path.join(out_dir, "ensemble")
    rec_dir = os.path.join(out_dir, "reconstruction")
    axis = ref.grid_axis(R_PRIME, wl["n"])
    origin, h = ref.ball_grid(R_PRIME, wl["n"])
    sigma = ref.bump_on_grid((0, 0, 0), SOURCE_RADIUS, SOURCE_AMPLITUDE, axis)
    nodes, normals = ref.sphere_mesh(R, LMAX)
    data: dict = {}
    results: list = []

    def check(fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - any fault in an output fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": fn.__name__, "ok": bool(ok), "detail": detail})

    @check
    def ensemble_store():
        traces, manifest = ref.read_traces(ens_dir)
        data["traces"], data["ens_manifest"] = traces, manifest
        ok = traces.shape == (wl["M"], len(nodes), 3) and manifest["physics"]["master_seed"] == seed
        return ok, f"shape {traces.shape}, digest verified, seed {manifest['physics']['master_seed']}"

    @check
    def traces_tangential():
        tr = data["traces"]
        worst = float(np.max(np.abs(np.einsum("mnj,nj->mn", tr, normals))) / np.max(np.abs(tr)))
        return worst <= TANGENTIAL_TOL, f"max |trace . nu| / max |trace| = {worst:.2e}"

    if wl["homogeneous"]:
        @check
        def green_summation():
            tr = data["traces"]
            worst = 0.0
            for r in sorted({0, wl["M"] // 2, wl["M"] - 1}):
                J = ref.white_noise(sigma, h, seed, r)
                direct = ref.direct_trace(K, J, axis, h, nodes, normals)
                worst = max(worst, float(np.max(np.abs(direct - tr[r])) / np.max(np.abs(direct))))
            return worst <= GREEN_SPOT_TOL, f"spot realizations, max rel deviation {worst:.2e}"

    @check
    def reconstruction_manifest():
        manifest = ref.read_manifest(os.path.join(rec_dir, "manifest.json"))
        data["rec_manifest"] = manifest
        params = manifest["parameters"]
        ok = manifest["ensemble_hash"] == data["ens_manifest"]["hash"] and params["M"] == wl["M"]
        return ok, f"t={params['t']:.3g} rho={params['rho']:.3g} eps={params['epsilon']:.3g}"

    @check
    def sigma_hat_hermitian():
        xi, sh, se = ref.read_sigma_hat(os.path.join(rec_dir, "sigma_hat.csv"))
        data["sigma_hat"] = (xi, sh, se)
        idx = np.rint(xi / data["rec_manifest"]["parameters"]["dxi"]).astype(np.int64)
        where = {tuple(row): i for i, row in enumerate(idx)}
        anti = np.array([where[tuple(-row)] for row in idx])
        worst = float(np.max(np.abs(sh - np.conj(sh[anti]))) / np.max(np.abs(sh)))
        return worst <= 1e-10, f"{len(xi)} samples, max |s(xi) - conj s(-xi)| / max |s| = {worst:.1e}"

    @check
    def sigma_hat_transform():
        xi, sh, se = data["sigma_hat"]
        q = np.linalg.norm(xi, axis=1)
        exact = ref.bump_transform(SOURCE_RADIUS, SOURCE_AMPLITUDE, q)
        dev = np.abs(sh - exact)
        if wl["homogeneous"]:
            within = dev <= 3.0 * se
            share = float(np.mean(within))
            ok = share >= SIGMA_HAT_SHARE_DESK
            return ok, f"{int(within.sum())}/{len(q)} within 3 SE (need share {SIGMA_HAT_SHARE_DESK})"
        params = data["rec_manifest"]["parameters"]
        low = q <= params["rho"] / 2.0
        # allowance: grid quadrature of the transform plus the CGO product
        # remainder, |int sigma e^{-i xi x} r| / lead <= sup|r| int sigma / lead
        X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
        sup = sigma > 0
        pts = np.stack([X[sup], Y[sup], Z[sup]], axis=1)
        grid_ft = h ** 3 * np.exp(-1j * xi[low] @ pts.T) @ sigma[sup]
        lead = 1.0 - q[low] ** 2 / (4.0 * params["t"] ** 2)
        allowance = np.abs(grid_ft - exact[low]) + REMAINDER_SUP * h ** 3 * sigma.sum() / lead
        within = dev[low] <= 3.0 * se[low] + allowance
        share = float(np.mean(within))
        ok = share >= SIGMA_HAT_SHARE_INHOM
        return ok, (f"{int(within.sum())}/{int(low.sum())} low-|xi| samples within 3 SE + allowance "
                    f"(max allowance {allowance.max():.2e}; need share {SIGMA_HAT_SHARE_INHOM})")

    @check
    def sigma_rec_field():
        vals, f_origin, f_h = ref.read_field(os.path.join(rec_dir, "sigma_rec.bin"))
        ok = (vals.shape == (1, wl["n"], wl["n"], wl["n"])
              and np.allclose(f_origin, origin, rtol=0, atol=1e-12)
              and abs(f_h - h) <= 1e-12 and np.all(np.isfinite(vals)) and not np.any(vals.imag))
        rec = vals[0].real
        data["rel_l2"] = float(np.linalg.norm(rec - sigma) / np.linalg.norm(sigma))
        return ok, f"grid {vals.shape[1:]}, h={f_h:.4f}, real and finite"

    @check
    def rel_l2_reported():
        mine, theirs = data["rel_l2"], data["rec_manifest"]["errors"]["rel_l2"]
        return abs(mine - theirs) <= 1e-9 * mine, f"benchmark {mine:.6f}, manifest {theirs:.6f}"

    if wl["rel_l2_max"] is not None:
        @check
        def rel_l2_bound():
            return data["rel_l2"] <= wl["rel_l2_max"], f"{data['rel_l2']:.4f} <= {wl['rel_l2_max']}"

    return results, data.get("rel_l2")


# -- one round -------------------------------------------------------------


def run_round(wl: dict, seed: int, trace: bool, rdir: str, deadline: float, run_id: str) -> dict:
    os.makedirs(rdir, exist_ok=True)
    out_dir = os.path.join(rdir, "run")
    t0 = time.monotonic()
    config = os.path.join(rdir, "config.ini")
    with open(config, "w") as fh:
        fh.write(wl["config"])
    input_s = time.monotonic() - t0

    def stage(sub, tag, out, traced):
        args = []
        if traced:
            args += ["--trace", os.path.join(rdir, f"{tag}.spans.json"), "--run-id", f"{run_id}-{tag}"]
        args += ["--", sub, "--config", config, "--out", out,
                 "--seed", str(seed), "--workers", str(wl["workers"])]
        return run_process(tag, args, rdir, deadline)

    # the first forward's store feeds reconstruct; the repeats only time the
    # stage again (same seed, so the same work) and are deleted
    forwards = [stage("forward", "forward", out_dir, trace)]
    for i in range(2, wl["forward_runs"] + 1):
        rep_dir = os.path.join(rdir, f"run{i}")
        forwards.append(stage("forward", f"forward{i}", rep_dir, False))
        shutil.rmtree(rep_dir, ignore_errors=True)
    recon = stage("reconstruct", "reconstruct", out_dir, trace)
    stages = forwards + [recon]
    solution_s = input_s + statistics.median(f.cpu_s for f in forwards) + recon.cpu_s

    probes = [run_process(f"setup{i}", ["--setup-only", "--config", config], rdir, deadline)
              for i in range(SETUP_SAMPLES - len(stages))]
    setups = [input_s + p.setup_s for p in stages + probes if p.setup_s is not None]

    checks, rel_l2 = check_outputs(wl, seed, out_dir)
    ops = [{"name": f"{s.tag} stage", "ok": s.ok, "detail": f"exit {s.rc}"} for s in stages] + checks

    layers = aggregate_spans(rdir) if trace else None
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "ops": ops,
        "setup_s": setups,
        "forward_s": statistics.median(f.main_s for f in forwards),
        "wall_s": [statistics.median(f.wall_s for f in forwards), recon.wall_s],
        "reconstruct_s": recon.main_s,
        "solution_s": solution_s,
        "peak_rss_mb": max(s.rss_mb for s in stages),
        "rel_l2": rel_l2,
        "layers": layers,
    }


PER_LAYER_CALLS = [
    "geometry.evaluate_on_grid", "greens.convolver_build", "greens.convolver_apply",
    "forward.noise_values", "forward.maxwell_solve", "sphharm.decompose", "sphharm.synthesize",
    "capacity.spherical_h1", "cgo.build_zeta_eta", "cgo.solve_remainder",
    "cgo.resolvent_build", "cgo.resolvent_apply", "reconstruct.dual_vector",
]
PER_LAYER_SELF = [
    "geometry.evaluate_on_grid", "geometry.trilinear_interpolate",
    "greens.convolver_build", "greens.convolver_apply",
    "forward.noise_values", "forward.trace_map_build", "forward.trace_map_apply",
    "forward.maxwell_solve", "forward.extract_trace",
    "sphharm.basis_build", "sphharm.decompose", "sphharm.synthesize",
    "capacity.build", "capacity.spherical_h1", "capacity.apply",
    "cgo.solve_remainder", "cgo.on_sphere", "cgo.resolvent_build", "cgo.resolvent_apply",
    "reconstruct.measure_epsilon", "reconstruct.dual_vector", "reconstruct.reconstruct_sigma",
    "reconstruct.hermitian_symmetrize", "reconstruct.fourier_synthesis",
    "ensemble.generate", "ensemble.write", "ensemble.read",
    "cli.run_forward", "cli.run_reconstruct",
]
PER_LAYER_COUNTERS = {
    "forward.trace_map_apply.gflop_computed": "GFLOP",
    "forward.ls_iterations": "count",
    "reconstruct.xi_nodes": "count",
    "reconstruct.trace_matmul.gflop_computed": "GFLOP",
    "ensemble.store_bytes": "B",
}


def aggregate_spans(rdir: str) -> dict:
    """Per-layer values of one round, summed over its two stage processes.
    A layer that did not run reads 0."""
    calls: dict = {}
    self_s: dict = {}
    counters: dict = {}
    for sub in ("forward", "reconstruct"):
        path = os.path.join(rdir, f"{sub}.spans.json")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            dump = json.load(fh)
        c, s = self_times(dump["spans"])
        for d, src in ((calls, c), (self_s, s), (counters, dump["counters"])):
            for key, val in src.items():
                d[key] = d.get(key, 0) + val
    out = {}
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in PER_LAYER_SELF:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name, unit in PER_LAYER_COUNTERS.items():
        out[name] = (counters.get(name, 0.0), unit)
    solves = calls.get("cgo.solve_remainder", 0)
    ratio = counters.get("cgo.nonzero_remainder", 0.0) / solves if solves else 0.0
    out["cgo.nonzero_remainder_ratio"] = (ratio, "1")
    return out


# -- entry point -----------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stochmaxwell", "cli.py")):
        print(f"no stochmaxwell sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    rounds = []
    while True:
        t_round = time.monotonic()
        rdir = os.path.join(work, f"round{len(rounds)}")
        run_id = f"{args.workload}-seed{args.seed}-round{len(rounds)}"
        rounds.append(run_round(wl, args.seed, bool(args.trace), rdir, deadline, run_id))
        now = time.monotonic()
        if now - start >= args.seconds or now + (now - t_round) > deadline:
            break

    ops = [op for rnd in rounds for op in rnd["ops"]]
    for i, rnd in enumerate(rounds):
        for op in rnd["ops"]:
            print(f"round {i} {'ok  ' if op['ok'] else 'FAIL'} {op['name']}: {op['detail']}")
        setup = statistics.median(rnd["setup_s"]) if rnd["setup_s"] else float("nan")
        print(f"round {i} CPU s: solution {rnd['solution_s']:.3f} forward {rnd['forward_s']:.3f} "
              f"reconstruct {rnd['reconstruct_s']:.3f} setup {setup:.3f}; "
              f"wall s: forward {rnd['wall_s'][0]:.3f} reconstruct {rnd['wall_s'][1]:.3f}; "
              f"peak_rss_mb {rnd['peak_rss_mb']:.1f}")
    failed = sum(not op["ok"] for op in ops)

    def med(key):
        vals = [rnd[key] for rnd in rounds if rnd[key] is not None]
        return statistics.median(vals) if vals else None

    if args.trace:
        metrics = {
            name: {"value": statistics.median(rnd["layers"][name][0] for rnd in rounds), "unit": unit}
            for name, (_, unit) in rounds[0]["layers"].items()
        }
    else:
        setups = [s for rnd in rounds for s in rnd["setup_s"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups) if setups else None, "unit": "s"},
            "forward_s": {"value": med("forward_s"), "unit": "s"},
            "reconstruct_s": {"value": med("reconstruct_s"), "unit": "s"},
            "solution_s": {"value": med("solution_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "rel_l2": {"value": med("rel_l2"), "unit": "1"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

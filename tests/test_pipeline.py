import hashlib
import json
import os
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from stochmaxwell import cgo, cli, reconstruct, verify
from stochmaxwell.capacity import CapacityOperator
from stochmaxwell.cgo import CgoRemainderSolver, build_zeta_eta
from stochmaxwell.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    _capacity,
    _recon_args,
    _traces,
    main,
    run_forward,
)
from stochmaxwell.config import ExperimentConfig, format_bumps, parse_bumps
from stochmaxwell.ensemble import (
    _REALIZATION_CHUNK,
    generate_ensemble,
    manifest_hash,
    read_ensemble,
    write_ensemble,
)
from stochmaxwell.forward import HomogeneousTraceMap, noise_amplitude, noise_values
from stochmaxwell.geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    evaluate_on_grid,
)
from stochmaxwell.reconstruct import stability_sweep


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

[sweep]
alphas = 1.0 0.1

[output]
directory = runs/small
"""


@pytest.fixture()
def small_cfg():
    return ExperimentConfig.from_text(SMALL_CONFIG)


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(SMALL_CONFIG)
    return str(p)


class TestBumpSyntax:
    def test_roundtrip(self):
        bumps = (Bump((0.1, -0.2, 0.0), 0.5, 0.3), Bump((0, 0, 0), 0.4, 1.0))
        assert parse_bumps(format_bumps(bumps)) == bumps

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_bumps("0 0 0 0.5")

    def test_empty_is_no_bumps(self):
        assert parse_bumps("  ;  ") == ()


class TestExperimentConfig:
    def test_parses_small_file(self, small_cfg):
        assert small_cfg.k == 2.0
        assert small_cfg.grid_n == 25
        assert small_cfg.realizations == 20
        assert small_cfg.lmax == 8
        assert small_cfg.rho_override == 1.5
        assert small_cfg.alphas == (1.0, 0.1)
        assert small_cfg.source_bumps == (Bump((0.0, 0.1, 0.0), 0.5, 0.2),)

    def test_text_roundtrip(self, small_cfg):
        assert ExperimentConfig.from_text(small_cfg.to_text()) == small_cfg

    def test_defaults_fill_missing_sections(self):
        cfg = ExperimentConfig.from_text("[physics]\nk = 3.0\n")
        assert cfg.k == 3.0
        assert cfg.R_prime == 1.3
        assert cfg.n_frames == 8

    def test_invalid_radii_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(R=1.3, R_prime=1.0)

    def test_bump_outside_ball_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(source_bumps=(Bump((0.9, 0, 0), 0.5, 0.1),))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(tmp_path / "absent.ini")

    def test_dropped_stability_keys_still_load(self, small_cfg):
        """Q and M2 are no longer read; a config that still sets them loads
        as if they were absent."""
        text = SMALL_CONFIG.replace("[stability]\n", "[stability]\nQ = 3.0\nM2 = 0.25\n")
        assert "M2 = 0.25" in text
        assert ExperimentConfig.from_text(text) == small_cfg

    def test_written_text_is_pinned(self):
        """Every manifest embeds `to_text()` as its config text, so the text
        of a config that sets every key is pinned, and reads back to the
        same config."""
        cfg = ExperimentConfig(
            k=2.5, R=1.0, R_prime=1.25, grid_n=17, grid_half_width=1.6,
            medium_bumps=(Bump((0.0, 0.1, 0.0), 0.6, 0.05), Bump((0.1, 0.0, 0.0), 0.3, -0.02)),
            source_bumps=(Bump((0.0, 0.0, 0.0), 0.95, 0.1),),
            realizations=50, master_seed=7, lmax=9, s=1.5, M1=0.75, tol=1e-9, max_iter=80,
            t_max=6.5, rho_override=2.25, n_frames=3, alphas=(1.0, 0.5, 0.125),
            fault_scale=1.05, output_dir="runs/full",
        )
        text = """\
[physics]
k = 2.5
r = 1.0
r_prime = 1.25

[grid]
n = 17
half_width = 1.6

[medium]
bumps = 0 0.1 0 0.6 0.05; 0.1 0 0 0.3 -0.02

[source]
bumps = 0 0 0 0.95 0.1

[ensemble]
realizations = 50
master_seed = 7

[stability]
lmax = 9
s = 1.5
m1 = 0.75

[solver]
tol = 1e-09
max_iter = 80

[reconstruction]
t_max = 6.5
n_frames = 3
rho_override = 2.25

[sweep]
alphas = 1.0 0.5 0.125

[verify]
fault_scale = 1.05

[output]
directory = runs/full

"""
        assert cfg.to_text() == text
        assert ExperimentConfig.from_text(text) == cfg

    @pytest.mark.parametrize("changes, named", [
        ({"s": float("nan")}, "[stability] s"),
        ({"t_max": float("inf")}, "[reconstruction] t_max"),
        ({"rho_override": float("nan")}, "[reconstruction] rho_override"),
        ({"rho_override": -1.0}, "[reconstruction] rho_override"),
        ({"grid_half_width": float("nan")}, "[grid] half_width"),
        ({"M1": float("-inf")}, "[stability] M1"),
        ({"alphas": (1.0, float("nan"))}, "[sweep] alphas"),
        ({"M1": 0.0}, "[stability] M1"),
        ({"s": -1.0}, "[stability] s"),
    ], ids=["nan-s", "inf-t-max", "nan-rho-override", "negative-rho-override",
            "nan-half-width", "minus-inf-M1", "nan-alpha", "zero-M1", "negative-s"])
    def test_code_built_nonfinite_rejected(self, small_cfg, changes, named):
        """A config built in code, or changed by `dataclasses.replace`, passes
        the same finite and range checks as an INI file, named by the INI key;
        comparisons such as `s <= 0` are false for nan and refused nothing."""
        for build in (lambda: ExperimentConfig(**changes), lambda: replace(small_cfg, **changes)):
            with pytest.raises(ConfigurationError, match=re.escape(named)):
                build()

    def test_derived_objects(self, small_cfg):
        assert small_cfg.grid().contains_ball(1.3)
        assert small_cfg.mesh().radius == 1.0
        assert small_cfg.medium().is_homogeneous
        args = _recon_args(small_cfg)
        assert (args["s"], args["M1"]) == (small_cfg.s, small_cfg.M1) == (1.0, 1.0)


class TestEnsembleStore:
    def _traces(self, M=5, N=12):
        rng = np.random.default_rng(17)
        return rng.standard_normal((M, N, 3)) + 1j * rng.standard_normal((M, N, 3))

    def test_roundtrip_bit_identical(self, tmp_path):
        traces = self._traces()
        manifest = write_ensemble(tmp_path, traces, {"kind": "trace-ensemble"})
        back, m2 = read_ensemble(tmp_path)
        assert np.array_equal(back, traces)
        assert m2 == manifest
        assert manifest["hash"] == manifest_hash(manifest)

    def test_records_are_written_from_the_array(self, tmp_path):
        """traces.bin holds the little-endian complex128 bytes of the traces
        and data_sha256 is their digest, written and hashed from the array's
        own buffer: the write's tracemalloc peak stays under half the
        records (a copy of them would double it)."""
        traces = self._traces(M=64, N=500)
        records = np.asarray(traces, dtype="<c16").tobytes()
        tracemalloc.start()
        try:
            manifest = write_ensemble(tmp_path, traces, {"kind": "trace-ensemble"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "traces.bin").read_bytes()[24:] == records
        assert manifest["data_sha256"] == hashlib.sha256(records).hexdigest()
        assert peak < 0.5 * len(records)
        write_ensemble(tmp_path / "strided", traces[::2], {"kind": "trace-ensemble"})
        assert np.array_equal(read_ensemble(tmp_path / "strided")[0], traces[::2])

    def test_corrupt_data_detected(self, tmp_path):
        write_ensemble(tmp_path, self._traces(), {"kind": "trace-ensemble"})
        path = tmp_path / "traces.bin"
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            read_ensemble(tmp_path)

    def test_corrupt_manifest_detected(self, tmp_path):
        write_ensemble(tmp_path, self._traces(), {"kind": "trace-ensemble"})
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["realizations"] = 999
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            read_ensemble(tmp_path)

    @pytest.mark.parametrize(
        "fname, offset, new",
        [
            ("traces.bin", 0, b"X"),  # magic
            ("traces.bin", 8, b"\x06"),  # (M, N) header, outside the digest
            ("manifest.json", 0, b"#"),  # not JSON
        ],
    )
    def test_corruption_is_a_configuration_error(self, tmp_path, fname, offset, new):
        write_ensemble(tmp_path, self._traces(), {"kind": "trace-ensemble"})
        path = tmp_path / fname
        blob = bytearray(path.read_bytes())
        blob[offset : offset + len(new)] = new
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError):
            read_ensemble(tmp_path)

    def test_manifest_without_digest_rejected(self, tmp_path):
        manifest = write_ensemble(tmp_path, self._traces(), {"kind": "trace-ensemble"})
        del manifest["data_sha256"]
        manifest["hash"] = manifest_hash(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            read_ensemble(tmp_path)

    def test_generation_is_deterministic(self, small_cfg):
        args = (
            small_cfg.k,
            small_cfg.medium(),
            small_cfg.source(),
            small_cfg.grid(),
            small_cfg.mesh(),
            6,
            small_cfg.master_seed,
        )
        assert np.array_equal(generate_ensemble(*args), generate_ensemble(*args))

    def test_streamed_chunks_match_single_realizations(self):
        grid, mesh = Grid3.for_ball(1.3, 13), SphereMesh(1.0, 6)
        sigma = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)
        M = _REALIZATION_CHUNK + 3
        args = (2.0, MediumSpec(ball_radius=1.0), sigma, grid, mesh, M, 5)
        traces = generate_ensemble(*args)
        assert np.array_equal(traces, generate_ensemble(*args))
        sig = evaluate_on_grid(sigma, grid)
        tmap = HomogeneousTraceMap(2.0, grid, sig > 0, mesh)
        single = mesh.from_frame(np.stack([
            tmap.traces(noise_values(noise_amplitude(sig, grid.spacing), 5, r)[:, sig > 0].T[None])[0]
            for r in range(M)
        ]))
        assert np.linalg.norm(traces - single) <= 1e-13 * np.linalg.norm(single)

    def test_zero_source_gives_zero_traces(self):
        grid = Grid3.for_ball(1.3, 25)
        mesh = SphereMesh(1.0, 6)
        traces = generate_ensemble(
            2.0,
            MediumSpec(ball_radius=1.0),
            SourceStrength((), ball_radius=1.0),
            grid,
            mesh,
            3,
            1,
        )
        assert np.all(traces == 0.0)

    def test_inhomogeneous_route_matches_shape(self, small_cfg):
        medium = MediumSpec((Bump((0, 0.1, 0), 0.5, 0.02),), ball_radius=1.0)
        traces = generate_ensemble(
            small_cfg.k,
            medium,
            small_cfg.source(),
            small_cfg.grid(),
            small_cfg.mesh(),
            2,
            small_cfg.master_seed,
        )
        assert traces.shape == (2, small_cfg.mesh().n_nodes, 3)
        assert np.all(np.isfinite(traces))
        normal = np.abs(np.einsum("mnj,nj->mn", traces, small_cfg.mesh().normals))
        assert normal.max() <= 1e-12 * np.abs(traces).max()

    def test_unresolved_medium_gives_homogeneous_ensemble(self):
        """A medium bump that falls between the nodes of an 8^3 grid samples
        to m = 0, so the ensemble is the homogeneous one, bit for bit."""
        grid, mesh = Grid3.for_ball(1.3, 8), SphereMesh(1.0, 6)
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
        assert not np.any(evaluate_on_grid(medium, grid))
        sigma = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)
        args = (sigma, grid, mesh, 5, 3)
        assert np.array_equal(
            generate_ensemble(2.0, medium, *args),
            generate_ensemble(2.0, MediumSpec(ball_radius=1.0), *args),
        )


class TestCliForward:
    def test_writes_reproducible_ensemble(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["forward", "--config", config_path, "--out", out1]) == EXIT_OK
        assert main(["forward", "--config", config_path, "--out", out2]) == EXIT_OK
        b1 = (tmp_path / "a" / "ensemble" / "traces.bin").read_bytes()
        b2 = (tmp_path / "b" / "ensemble" / "traces.bin").read_bytes()
        assert b1 == b2
        m1 = json.loads((tmp_path / "a" / "ensemble" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "ensemble" / "manifest.json").read_text())
        assert m1["hash"] == m2["hash"]

    def test_seed_override_changes_data(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["forward", "--config", config_path, "--out", out1])
        main(["forward", "--config", config_path, "--out", out2, "--seed", "7"])
        m1 = json.loads((tmp_path / "a" / "ensemble" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "ensemble" / "manifest.json").read_text())
        assert m1["data_sha256"] != m2["data_sha256"]

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[physics]\nR = 2.0\nR_prime = 1.0\n")
        assert main(["forward", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_config_exits_2(self, tmp_path):
        assert (
            main(["forward", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)])
            == EXIT_CONFIG
        )

    def test_zero_workers_exits_2(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["forward", "--config", config_path, "--out", str(tmp_path), "--workers", "0"])
        assert exc.value.code == EXIT_CONFIG

    def test_unwritable_out_exits_2(self, config_path, tmp_path, capsys):
        """An --out below a regular file cannot be made: one line, exit 2."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "x")
        assert main(["forward", "--config", config_path, "--out", out]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "cannot access run outputs" in lines[0]

    def test_negative_seed_flag_exits_2(self, config_path, tmp_path, capsys):
        """`--seed -1` reaches the config through `dataclasses.replace`: one
        line and exit 2, where numpy's SeedSequence raised a traceback."""
        out = tmp_path / "o"
        argv = ["forward", "--config", config_path, "--out", str(out), "--seed", "-1"]
        assert main(argv) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "master seed must be non-negative" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forward", "reconstruct"])
    @pytest.mark.parametrize("old, new", [
        ("k = 2.0", "k = 0"),
        ("k = 2.0", "k = -1"),
        ("n = 25", "n = 1\nhalf_width = 2.0"),
    ], ids=["zero-k", "negative-k", "one-node-grid"])
    def test_invalid_wavenumber_or_grid_exits_2(self, tmp_path, capsys, command, old, new):
        """A non-positive wavenumber or a one-node grid is refused when the
        config loads, with one line instead of a traceback or silent traces."""
        assert SMALL_CONFIG.count(old) == 1
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace(old, new))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1


    @pytest.mark.parametrize("old, new, named", [
        ("realizations = 20", "realizations = ten", "[ensemble] realizations"),
        ("0 0.1 0 0.5 0.2", "0 0 0 0.5 x", "[source] bumps"),
        ("\n[physics]", "k = 2.0\n[physics]", "no section headers"),
        ("realizations = 20", "realizations = 20\nrealizations = 30", "'realizations'"),
        ("rho_override = 1.5", "rho_override = nan", "[reconstruction] rho_override"),
        ("lmax = 8", "lmax = 8\ns = nan", "[stability] s"),
        ("lmax = 8", "lmax = 8\nM1 = -inf", "[stability] M1"),
        ("k = 2.0", "k = inf", "[physics] k"),
        ("0 0.1 0 0.5 0.2", "0 0.1 0 0.5 nan", "[source] bumps"),
        ("[source]", "[medium]\nbumps = 0 0 0 nan 0.05\n\n[source]", "[medium] bumps"),
        ("alphas = 1.0 0.1", "alphas = 1 nan", "[sweep] alphas"),
        ("n = 25", "n = 25\nhalf_width = nan", "[grid] half_width"),
        ("[sweep]", "[solver]\ntol = nan\n\n[sweep]", "[solver] tol"),
        ("n_frames = 1", "n_frames = 1\nt_max = nan", "[reconstruction] t_max"),
        ("n_frames = 1", "n_frames = 1\nt_max = -1", "[reconstruction] t_max"),
        ("n_frames = 1", "n_frames = 1\nt_max = 0", "[reconstruction] t_max"),
        ("master_seed = 99", "master_seed = -1", "master seed must be non-negative"),
        ("rho_override = 1.5", "rho_override = -1", "[reconstruction] rho_override"),
        ("rho_override = 1.5", "rho_override = 0", "[reconstruction] rho_override"),
        ("alphas = 1.0 0.1", "alphas = 1.0 2.0", "[sweep] alphas"),
        ("alphas = 1.0 0.1", "alphas = 1.0 -0.5", "[sweep] alphas"),
        ("alphas = 1.0 0.1", "alphas = 1.0 0.5 0.5", "[sweep] alphas"),
    ], ids=["non-numeric-value", "non-numeric-bump", "no-section-header", "repeated-key",
            "nan-rho-override", "nan-s", "minus-inf-M1", "inf-k", "nan-source-amplitude",
            "nan-medium-radius", "nan-alpha", "nan-half-width", "nan-tol", "nan-t-max",
            "negative-t-max", "zero-t-max", "negative-seed", "negative-rho-override",
            "zero-rho-override", "increasing-alphas", "non-positive-alpha", "repeated-alpha"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, old, new, named):
        """A value that does not convert, a non-finite number (nan, inf), a
        negative master seed (a SeedSequence traceback before), a t_max <= 0
        (a complex-power traceback, or a message about rho, before), a
        rho_override <= 0 or sweep alphas that are not positive and strictly
        decreasing (a message naming no key, after the whole forward stage,
        before), a file without a section header and a repeated key are
        refused with one line naming the fault, before any ensemble is written."""
        assert SMALL_CONFIG.count(old) == 1
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace(old, new))
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and named in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("n_frames = 1", "n_frame = 1", "'n_frame' in [reconstruction]"),
        ("[reconstruction]", "[reconstuction]", "[reconstuction]"),
        ("[sweep]", "[sweep]\nQ = 2.0", "'q' in [sweep]"),
        ("[sweep]", "[DEFAULT]\nt_max = 3.0\n[sweep]", "[DEFAULT]"),
    ], ids=["misspelled-key", "misspelled-section", "retired-key-elsewhere", "default-section"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, old, new, named):
        """A key or section the config does not read is refused with one line
        naming it, instead of falling back to a default."""
        assert SMALL_CONFIG.count(old) == 1
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace(old, new))
        assert main(["forward", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and named in lines[0]
        assert not (tmp_path / "o").exists()


class TestCliVerify:
    def test_all_checks_pass(self, config_path, tmp_path):
        out = str(tmp_path / "v")
        assert main(["verify", "--config", config_path, "--out", out]) == EXIT_OK
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert {"green_reciprocity", "capacity_multipole_identity", "ito_isometry",
                "green_hessian_fd", "green_near_cell", "cgo_plane_wave_stencil"} <= names

    def test_faulted_operator_exits_4(self, tmp_path):
        cfg_text = SMALL_CONFIG + "\n[verify]\nfault_scale = 1.05\n"
        p = tmp_path / "faulty.ini"
        p.write_text(cfg_text)
        out = str(tmp_path / "v")
        assert main(["verify", "--config", str(p), "--out", out]) == EXIT_VERIFY
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert {"capacity_multipole_identity", "ibp_identity"} <= failed

    def test_broken_transpose_fails_the_ibp_row(self, small_cfg, tmp_path, monkeypatch):
        """The ibp row pairs through the reconstruction's dual vectors, so a
        transposed capacity that drops its frequency reflection, S_m^T for
        S_{-m}^T, fails it; the capacity row, which applies C itself, still
        passes."""
        def unreflected(self, comps):
            return self._convolve(comps, self._symbol.transpose(0, 2, 1))

        monkeypatch.setattr(CapacityOperator, "apply_frame_transpose", unreflected)
        report, ok = cli.run_verify(small_cfg, str(tmp_path / "v"))
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert not ok and failed == {"ibp_identity"}

    def test_inhomogeneous_config_passes(self, tmp_path):
        """The ibp pairing takes its trace from the trace map, as the
        ensembles do, so every check passes on the 10^3 grid of the
        inhomogeneous config; the trilinear trace of a full-grid solve
        missed the pairing's 1e-2 bound there by about 19x."""
        p = tmp_path / "inhom.ini"
        p.write_text(INHOM_CONFIG)
        assert main(["verify", "--config", str(p), "--out", str(tmp_path / "v")]) == EXIT_OK

    def test_overflowing_capacity_exits_2(self, tmp_path, capsys):
        """At k R = 1e-30 the Hankel functions of degree 10 overflow: verify
        refuses the degree cutoff with one line naming `[stability] lmax` and
        k R instead of a traceback."""
        p = tmp_path / "tiny-k.ini"
        p.write_text(INHOM_CONFIG.replace("k = 2.0", "k = 1e-30").replace("lmax = 4", "lmax = 12"))
        assert main(["verify", "--config", str(p), "--out", str(tmp_path / "v")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "[stability] lmax" in lines[0] and "k R = 1e-30" in lines[0]

    def test_unresolved_probe_exits_2(self, tmp_path, capsys):
        """On an 8^3 grid the probe source falls between the nodes: verify
        refuses the vacuous check with one line instead of passing it."""
        p = tmp_path / "coarse.ini"
        p.write_text(SMALL_CONFIG.replace("n = 25", "n = 8"))
        assert main(["verify", "--config", str(p), "--out", str(tmp_path / "v")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "ibp_identity" in lines[0]

    def test_configured_max_iter_reaches_cgo_rows(self, small_cfg, tmp_path, monkeypatch):
        """`[solver] max_iter` bounds the CGO solves of the verify rows, as it
        bounds those of `reconstruct`."""
        seen = []
        solve = cgo.solve_fixed_point

        def recording(apply, b, tol, max_iter, what):
            seen.append(max_iter)
            return solve(apply, b, tol, max_iter, what)

        monkeypatch.setattr(cgo, "solve_fixed_point", recording)
        report, _ = cli.run_verify(replace(small_cfg, max_iter=7), str(tmp_path / "v"))
        assert seen and set(seen) == {7}
        assert "cgo_contrast_residual" in {c["name"] for c in report["checks"]}

    def test_unresolved_contrast_and_source_rejected(self):
        grid = Grid3.for_ball(1.3, 8)  # the bump falls between the nodes
        xi, t = np.array([1.0, 0.0, 0.5]), 5.0
        zeta, eta, _ = build_zeta_eta(xi, t, 2.0)
        bump = Bump((0.0, 0.1, 0.0), 0.6, 0.05)
        with pytest.raises(ConfigurationError):
            verify.cgo_residual(xi, t, 2.0, MediumSpec((bump,)), grid)
        with pytest.raises(ConfigurationError):
            verify.ito_isometry(2.0, SourceStrength((bump,)), grid, zeta[None], eta[None], 1, 10)


class TestCliReconstruct:
    def test_end_to_end_artifacts(self, config_path, tmp_path):
        out = str(tmp_path / "r")
        assert main(["reconstruct", "--config", config_path, "--out", out]) == EXIT_OK
        rec = tmp_path / "r" / "reconstruction"
        assert (rec / "sigma_hat.csv").exists()
        assert (rec / "sigma_rec.bin").exists()
        manifest = json.loads((rec / "manifest.json").read_text())
        assert manifest["errors"]["rel_l2"] is not None
        header = (rec / "sigma_hat.csv").read_text().splitlines()[0]
        assert header == "xi_x,xi_y,xi_z,re_sigma_hat,im_sigma_hat,stderr"

    def test_rerun_is_bit_identical(self, config_path, tmp_path):
        out = str(tmp_path / "r")
        main(["reconstruct", "--config", config_path, "--out", out])
        rec = tmp_path / "r" / "reconstruction"
        first = {f: (rec / f).read_bytes() for f in os.listdir(rec)}
        main(["reconstruct", "--config", config_path, "--out", out])
        for f, blob in first.items():
            assert (rec / f).read_bytes() == blob

    def test_frame_ensemble_freed_before_the_grams(self, small_cfg, tmp_path, monkeypatch):
        """`run_reconstruct` hands the frame components to the
        reconstruction without keeping them, so they are freed once their
        real rows are copied, before the Grams are formed."""
        refs, alive = [], []
        real_rows, grams = reconstruct._real_rows, reconstruct._grams

        def rows_spy(traces, mesh):
            refs.append(weakref.ref(traces))
            return real_rows(traces, mesh)

        def grams_spy(Y):
            alive.append(refs[-1]() is not None)
            return grams(Y)

        monkeypatch.setattr(reconstruct, "_real_rows", rows_spy)
        monkeypatch.setattr(reconstruct, "_grams", grams_spy)
        cli.run_reconstruct(small_cfg, str(tmp_path / "r"))
        assert alive == [False]

    def test_corrupt_store_exits_2(self, config_path, tmp_path):
        out = str(tmp_path / "r")
        assert main(["forward", "--config", config_path, "--out", out]) == EXIT_OK
        path = tmp_path / "r" / "ensemble" / "traces.bin"
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["reconstruct", "--config", config_path, "--out", out]) == EXIT_CONFIG

    def test_missing_traces_exits_2(self, config_path, tmp_path):
        out = str(tmp_path / "r")
        assert main(["forward", "--config", config_path, "--out", out]) == EXIT_OK
        (tmp_path / "r" / "ensemble" / "traces.bin").unlink()
        assert main(["reconstruct", "--config", config_path, "--out", out]) == EXIT_CONFIG

    def test_physics_mismatch_exits_2(self, small_cfg, config_path, tmp_path):
        out = str(tmp_path / "r")
        run_forward(small_cfg, os.path.join(out, "ensemble"))
        other = tmp_path / "other.ini"
        other.write_text(SMALL_CONFIG.replace("0 0.1 0 0.5 0.2", "0 0 0 0.4 0.3"))
        assert main(["reconstruct", "--config", str(other), "--out", out]) == EXIT_CONFIG

    def test_store_without_physics_block_exits_2(self, small_cfg, config_path, tmp_path,
                                                  capsys):
        """A stored manifest with a valid hash but no physics block matches
        no config: one line and exit 2, where a KeyError traceback ended the
        run before."""
        out = str(tmp_path / "r")
        run_forward(small_cfg, os.path.join(out, "ensemble"))
        path = tmp_path / "r" / "ensemble" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["physics"]
        manifest["hash"] = manifest_hash(manifest)
        path.write_text(json.dumps(manifest))
        assert main(["reconstruct", "--config", config_path, "--out", out]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "physics block" in lines[0]

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    @pytest.mark.parametrize("new, named", [
        ("M1 = -1", "[stability] M1"),
        ("M1 = 0", "[stability] M1"),
        ("s = 0", "[stability] s"),
    ], ids=["negative-M1", "zero-M1", "zero-s"])
    def test_non_positive_stability_constant_refused_before_drawing(
        self, tmp_path, capsys, command, new, named
    ):
        """`[stability] M1` or `s` <= 0 is refused when the config loads,
        naming the key, and no ensemble is drawn or written (before, M1 <= 0
        reached the reconstruction only after the ensemble was on disk)."""
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SMALL_CONFIG.replace("lmax = 8", f"lmax = 8\n{new}"))
        out = tmp_path / "r"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and named in lines[0]
        assert not (out / "ensemble").exists()

    def test_single_realization_exits_2(self, tmp_path, capsys):
        """One realization gives no kernel estimate: one line, not a traceback."""
        text = INHOM_CONFIG.replace("[medium]\nbumps = 0 0.1 0 0.6 0.05\n\n", "")
        text = text.replace("realizations = 20", "realizations = 1")
        assert "[medium]" not in text and "realizations = 1\n" in text
        cfg = tmp_path / "one.ini"
        cfg.write_text(text)
        out = str(tmp_path / "r")
        assert main(["forward", "--config", str(cfg), "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(cfg), "--out", out]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "two realizations" in lines[0]

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_single_realization_refused_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                       command):
        """With no stored ensemble, `reconstruct` and `sweep` refuse a
        one-realization config, naming the key, before any draw (before, both
        drew the ensemble and `reconstruct` left it on disk)."""
        def never(*args, **kwargs):
            raise AssertionError("the ensemble was drawn")

        monkeypatch.setattr(cli, "generate_ensemble", never)
        cfg = tmp_path / "one.ini"
        cfg.write_text(SMALL_CONFIG.replace("realizations = 20", "realizations = 1"))
        out = tmp_path / "r"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "[ensemble] realizations" in lines[0]
        assert not (out / "ensemble").exists()


INHOM_CONFIG = """
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
realizations = 20
master_seed = 99

[stability]
lmax = 4

[reconstruction]
n_frames = 1
"""


class TestInhomogeneousRoute:
    def test_rerun_is_bit_identical(self, tmp_path):
        """Forward (the medium's trace map) and reconstruct (CGO remainder
        solves) on a medium bump; n = 10 is the coarsest grid that resolves
        the bump."""
        cfg = tmp_path / "inhom.ini"
        cfg.write_text(INHOM_CONFIG)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            for command in ("forward", "reconstruct"):
                assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            blobs.append({
                f"{sub}/{f}": (out / sub / f).read_bytes()
                for sub in ("ensemble", "reconstruction")
                for f in sorted(os.listdir(out / sub))
            })
        assert len(blobs[0]) == 5 and blobs[0] == blobs[1]


    def test_map_build_failure_exits_3(self, tmp_path, capsys):
        """A tolerance the map build's solve cannot reach ends in exit 3 with
        one line, not a traceback."""
        cfg = tmp_path / "hard.ini"
        cfg.write_text(INHOM_CONFIG + "\n[solver]\ntol = 1e-18\nmax_iter = 2\n")
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure")

    def test_cgo_failure_exits_3(self, tmp_path, capsys):
        """A tolerance the CGO remainder solves cannot reach ends the
        reconstruction in exit 3 with one line; tol is outside the physics
        block, so the stored ensemble is reused."""
        cfg, hard = tmp_path / "inhom.ini", tmp_path / "hard.ini"
        cfg.write_text(INHOM_CONFIG)
        hard.write_text(INHOM_CONFIG + "\n[solver]\ntol = 1e-18\nmax_iter = 2\n")
        out = str(tmp_path / "o")
        assert main(["forward", "--config", str(cfg), "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(hard), "--out", out]) == EXIT_SOLVER
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure")
        assert "CGO remainder" in lines[0]

    def test_configured_max_iter_reaches_cgo_solver(self, tmp_path, monkeypatch):
        """`[solver] max_iter` bounds the CGO remainder solves of
        `reconstruct`, as it bounds the forward solves."""
        seen = []

        class Recording(CgoRemainderSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append((self.tol, self.max_iter))

        monkeypatch.setattr(reconstruct, "CgoRemainderSolver", Recording)
        cfg = tmp_path / "inhom.ini"
        cfg.write_text(INHOM_CONFIG + "\n[solver]\ntol = 1e-9\nmax_iter = 50\n")
        out = str(tmp_path / "o")
        for command in ("forward", "reconstruct"):
            assert main([command, "--config", str(cfg), "--out", out]) == EXIT_OK
        assert seen == [(1e-9, 50)]


class TestCliSweep:
    def test_writes_table(self, config_path, tmp_path):
        out = str(tmp_path / "s")
        assert main(["sweep", "--config", config_path, "--out", out]) == EXIT_OK
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,epsilon,sigma_l2,rel_l2_error,check_quantity"
        assert len(lines) == 3  # two alphas
        eps = [float(l.split(",")[1]) for l in lines[1:]]
        # traces carry sqrt(sigma), so the quadratic kernels are linear in
        # the source scale: alpha 1 -> 0.1 drops epsilon 10x
        assert eps[0] / eps[1] == pytest.approx(10.0, rel=0.05)

    def test_rerun_is_bit_identical(self, config_path, tmp_path):
        """Two sweeps with the same config and seed write the same bytes."""
        blobs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_OK
            blobs.append((out / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_scaled_ensemble_matches_regenerated(self, small_cfg):
        """`run_sweep` scales one ensemble by sqrt(alpha) instead of drawing
        one per alpha: the seed law draws the same normals for every alpha
        with amplitude sqrt(alpha sigma). The rows agree with a factory that
        regenerates the ensemble of each scaled source."""
        def regenerate(alpha):
            bumps = tuple(replace(b, amplitude=b.amplitude * alpha) for b in small_cfg.source_bumps)
            return mesh.to_frame(_traces(replace(small_cfg, source_bumps=bumps)))

        mesh = small_cfg.mesh()
        traces = mesh.to_frame(_traces(small_cfg))
        alphas = (1.0, 0.1, 0.001)
        args = (small_cfg.source(), _capacity(small_cfg))
        kwargs = dict(alphas=alphas, **_recon_args(small_cfg))
        scaled = stability_sweep(lambda alpha: np.sqrt(alpha) * traces, *args, **kwargs)
        fresh = stability_sweep(regenerate, *args, **kwargs)
        assert len(scaled) == len(fresh) == len(alphas)
        for got, want in zip(scaled, fresh):
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)

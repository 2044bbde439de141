"""Experiment configuration: a flat INI file mirrored into a dataclass.

The file format is deliberately plain text so the manifest can embed it
verbatim and a rerun can be reproduced by diffing two manifests. Bumps are
written as whitespace-separated quintuples `cx cy cz radius amplitude`,
several per line separated by semicolons.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .cgo import StabilityConstants
from .geometry import Bump, ConfigurationError, Grid3, MediumSpec, SourceStrength, SphereMesh

__all__ = ["ExperimentConfig", "parse_bumps", "format_bumps"]

# keys that earlier versions read and that still load, as if absent
_RETIRED_KEYS = {("stability", "q"), ("stability", "m2")}


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


def parse_bumps(text: str) -> tuple[Bump, ...]:
    bumps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [float(v) for v in part.split()]
        if len(vals) != 5:
            raise ConfigurationError(
                f"bump needs 5 numbers (cx cy cz radius amplitude), got {part!r}"
            )
        bumps.append(Bump(center=tuple(vals[:3]), radius=vals[3], amplitude=vals[4]))
    return tuple(bumps)


def format_bumps(bumps) -> str:
    return "; ".join(
        f"{b.center[0]:g} {b.center[1]:g} {b.center[2]:g} {b.radius:g} {b.amplitude:g}"
        for b in bumps
    )


@dataclass(frozen=True)
class ExperimentConfig:
    k: float = 2.0
    R: float = 1.0
    R_prime: float = 1.3
    grid_n: int = 33
    grid_half_width: float | None = None  # default: snug box around B_{R'}
    medium_bumps: tuple = ()
    source_bumps: tuple = ()
    realizations: int = 100
    master_seed: int = 1234
    lmax: int = 12
    s: float = 1.0
    M1: float = 1.0
    tol: float = 1e-10
    max_iter: int = 60
    t_max: float = 8.0
    rho_override: float | None = None
    n_frames: int = 8
    alphas: tuple = (1.0, 0.1, 0.01, 0.001)
    fault_scale: float = 1.0
    output_dir: str = "runs/out"

    def __post_init__(self):
        if not self.k > 0:
            raise ConfigurationError("wavenumber k must be positive")
        if not (0 < self.R < self.R_prime):
            raise ConfigurationError("need 0 < R < R'")
        if self.grid_half_width is not None and self.grid_half_width <= self.R_prime:
            raise ConfigurationError("grid half-width must exceed R'")
        if self.realizations < 1:
            raise ConfigurationError("need at least one realization")
        if self.s <= 0 or self.tol <= 0 or self.max_iter < 1:
            raise ConfigurationError("tolerances and smoothness must be positive")
        if self.lmax < 1 or self.n_frames < 1:
            raise ConfigurationError("lmax and n_frames must be at least 1")
        # constructing the grid and specs validates them (bump geometry against B_R)
        self.grid()
        self.medium()
        self.source()

    # -- derived objects ---------------------------------------------------

    def grid(self) -> Grid3:
        if self.grid_half_width is not None:
            return Grid3.cube(self.grid_half_width, self.grid_n)
        return Grid3.for_ball(self.R_prime, self.grid_n)

    def medium(self) -> MediumSpec:
        return MediumSpec(self.medium_bumps, ball_radius=self.R)

    def source(self) -> SourceStrength:
        return SourceStrength(self.source_bumps, ball_radius=self.R)

    def mesh(self) -> SphereMesh:
        return SphereMesh(self.R, self.lmax)

    def constants(self) -> StabilityConstants:
        return StabilityConstants(M1=self.M1, s=self.s)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            read = cp.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(_one_line(exc)) from exc
        if not read:
            raise ConfigurationError(f"cannot read config file {path}")
        return cls._from_parser(cp)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(_one_line(exc)) from exc
        return cls._from_parser(cp)

    @classmethod
    def _from_parser(cls, cp: configparser.ConfigParser) -> "ExperimentConfig":
        kw = {}
        known = set(_RETIRED_KEYS)

        def get(section, option, conv, key=None):
            known.add((section, option.lower()))
            if cp.has_option(section, option):
                try:
                    raw = cp.get(section, option).strip()
                    if raw:
                        kw[key or option] = conv(raw)
                except (configparser.Error, ValueError) as exc:
                    raise ConfigurationError(f"[{section}] {option}: {_one_line(exc)}") from exc

        get("physics", "k", float)
        get("physics", "R", float)
        get("physics", "R_prime", float)
        get("grid", "n", int, "grid_n")
        get("grid", "half_width", float, "grid_half_width")
        get("medium", "bumps", parse_bumps, "medium_bumps")
        get("source", "bumps", parse_bumps, "source_bumps")
        get("ensemble", "realizations", int)
        get("ensemble", "master_seed", int)
        get("stability", "lmax", int)
        get("stability", "s", float)
        get("stability", "M1", float)
        get("solver", "tol", float)
        get("solver", "max_iter", int)
        get("reconstruction", "t_max", float)
        get("reconstruction", "rho_override", float)
        get("reconstruction", "n_frames", int)
        get(
            "sweep",
            "alphas",
            lambda raw: tuple(float(v) for v in raw.split()),
        )
        get("verify", "fault_scale", float)
        get("output", "directory", str, "output_dir")
        if cp.defaults():  # its keys would reach every section
            raise ConfigurationError("unknown config section [DEFAULT]")
        for section in cp.sections():
            if not any(s == section for s, _ in known):
                raise ConfigurationError(f"unknown config section [{section}]")
            for option in cp.options(section):
                if (section, option) not in known:
                    raise ConfigurationError(f"unknown config key {option!r} in [{section}]")
        try:
            return cls(**kw)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp["physics"] = {"k": repr(self.k), "R": repr(self.R), "R_prime": repr(self.R_prime)}
        grid = {"n": str(self.grid_n)}
        if self.grid_half_width is not None:
            grid["half_width"] = repr(self.grid_half_width)
        cp["grid"] = grid
        cp["medium"] = {"bumps": format_bumps(self.medium_bumps)}
        cp["source"] = {"bumps": format_bumps(self.source_bumps)}
        cp["ensemble"] = {
            "realizations": str(self.realizations),
            "master_seed": str(self.master_seed),
        }
        cp["stability"] = {
            "lmax": str(self.lmax),
            "s": repr(self.s),
            "M1": repr(self.M1),
        }
        cp["solver"] = {"tol": repr(self.tol), "max_iter": str(self.max_iter)}
        recon = {"t_max": repr(self.t_max), "n_frames": str(self.n_frames)}
        if self.rho_override is not None:
            recon["rho_override"] = repr(self.rho_override)
        cp["reconstruction"] = recon
        cp["sweep"] = {"alphas": " ".join(repr(a) for a in self.alphas)}
        cp["verify"] = {"fault_scale": repr(self.fault_scale)}
        cp["output"] = {"directory": self.output_dir}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def physics_block(self) -> dict:
        """The manifest fields an ensemble must agree on to be reusable."""
        return {
            "k": self.k,
            "R": self.R,
            "R_prime": self.R_prime,
            "grid_n": self.grid_n,
            "grid_half_width": self.grid_half_width,
            "medium_bumps": format_bumps(self.medium_bumps),
            "source_bumps": format_bumps(self.source_bumps),
            "lmax": self.lmax,
            "master_seed": self.master_seed,
        }

"""Experiment configuration: a flat INI file mirrored into a dataclass.

The file format is deliberately plain text so the manifest can embed it
verbatim and a rerun can be reproduced by diffing two manifests. Bumps are
written as whitespace-separated quintuples `cx cy cz radius amplitude`,
several per line separated by semicolons.
"""
from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass

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


# Every INI key once, as (section, option, field, parse, write), in the order
# `to_text` writes them; a None field is not written. `__post_init__` refuses
# non-finite numbers by these names, and `Bump` refuses its own.
_KEYS = (
    ("physics", "k", "k", float, repr),
    ("physics", "R", "R", float, repr),
    ("physics", "R_prime", "R_prime", float, repr),
    ("grid", "n", "grid_n", int, str),
    ("grid", "half_width", "grid_half_width", float, repr),
    ("medium", "bumps", "medium_bumps", parse_bumps, format_bumps),
    ("source", "bumps", "source_bumps", parse_bumps, format_bumps),
    ("ensemble", "realizations", "realizations", int, str),
    ("ensemble", "master_seed", "master_seed", int, str),
    ("stability", "lmax", "lmax", int, str),
    ("stability", "s", "s", float, repr),
    ("stability", "M1", "M1", float, repr),
    ("solver", "tol", "tol", float, repr),
    ("solver", "max_iter", "max_iter", int, str),
    ("reconstruction", "t_max", "t_max", float, repr),
    ("reconstruction", "n_frames", "n_frames", int, str),
    ("reconstruction", "rho_override", "rho_override", float, repr),
    ("sweep", "alphas", "alphas",
     lambda raw: tuple(map(float, raw.split())), lambda alphas: " ".join(map(repr, alphas))),
    ("verify", "fault_scale", "fault_scale", float, repr),
    ("output", "directory", "output_dir", str, str),
)
# fields refused unless positive (None, where allowed, is no value); the upper
# bound of rho_override needs t, so reconstruct_sigma checks it
_POSITIVE = {"k", "realizations", "lmax", "s", "M1", "tol", "max_iter", "t_max", "n_frames",
             "rho_override"}


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
        for section, option, field, *_ in _KEYS:  # nan and +-inf mean no config value
            value = getattr(self, field)
            for v in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(v, numbers.Real) and not math.isfinite(v):
                    raise ConfigurationError(f"[{section}] {option}: {v} is not a finite number")
            if field in _POSITIVE and value is not None and value <= 0:
                raise ConfigurationError(f"[{section}] {option} must be positive, got {value}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master seed must be non-negative, got {self.master_seed}")
        if not (0 < self.R < self.R_prime):
            raise ConfigurationError("need 0 < R < R'")
        if self.grid_half_width is not None and self.grid_half_width <= self.R_prime:
            raise ConfigurationError("grid half-width must exceed R'")
        if any(a <= 0 for a in self.alphas):
            raise ConfigurationError(f"[sweep] alphas must be positive, got {list(self.alphas)}")
        if any(b >= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ConfigurationError(
                f"[sweep] alphas must be strictly decreasing, got {list(self.alphas)}")
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

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {_one_line(exc)}") from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(_one_line(exc)) from exc
        if cp.defaults():  # its keys would reach every section
            raise ConfigurationError("unknown config section [DEFAULT]")
        known = _RETIRED_KEYS | {(section, option.lower()) for section, option, *_ in _KEYS}
        for section in cp.sections():
            if not any(s == section for s, _ in known):
                raise ConfigurationError(f"unknown config section [{section}]")
            for option in cp.options(section):
                if (section, option) not in known:
                    raise ConfigurationError(f"unknown config key {option!r} in [{section}]")
        kw = {}
        for section, option, field, parse, _ in _KEYS:
            try:
                raw = cp.get(section, option, fallback="").strip()
                if raw:
                    kw[field] = parse(raw)
            except (configparser.Error, ValueError) as exc:
                raise ConfigurationError(f"[{section}] {option}: {_one_line(exc)}") from exc
        return cls(**kw)

    def to_text(self) -> str:
        sections = {}
        for section, option, field, _, write in _KEYS:
            value = getattr(self, field)
            if value is not None:
                sections.setdefault(section, {})[option] = write(value)
        cp = configparser.ConfigParser()
        cp.read_dict(sections)
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


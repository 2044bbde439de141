"""Grids, bump-parameterized media/sources, and sphere quadrature with its
tangential frame. Grid samples are plain ndarrays `components + grid.dims`.

Everything here is immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Grid3",
    "Bump",
    "MediumSpec",
    "SourceStrength",
    "SphereMesh",
    "evaluate_on_grid",
    "trilinear_interpolate",
    "write_field",
    "ConfigurationError",
]


class ConfigurationError(ValueError):
    """Invalid geometry / medium / source configuration."""


@dataclass(frozen=True)
class Grid3:
    """Uniform cubic-cell grid with nodes at origin + index*spacing."""

    origin: tuple[float, float, float]
    spacing: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if not (all(map(math.isfinite, self.origin)) and 0 < self.spacing < math.inf):
            raise ConfigurationError("grid origin must be finite, spacing finite and positive")
        if any(n <= 0 for n in self.dims):
            raise ConfigurationError("grid dims must be positive")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @classmethod
    def cube(cls, half_width: float, n: int) -> "Grid3":
        """Cube of side 2*half_width centered at the origin, n nodes per axis."""
        if n < 2:
            raise ConfigurationError("need at least 2 nodes per axis")
        h = 2.0 * half_width / (n - 1)
        return cls(origin=(-half_width,) * 3, spacing=h, dims=(n, n, n))

    @classmethod
    def for_ball(cls, radius: float, n: int = 32) -> "Grid3":
        """Default box: side 2*radius + 4h, so the closed ball sits strictly inside."""
        # side = 2*radius + 4h with h = side/(n-1)  =>  side = 2*radius*(n-1)/(n-5)
        if n < 8:
            raise ConfigurationError("need at least 8 nodes per axis")
        side = 2.0 * radius * (n - 1) / (n - 5)
        return cls.cube(side / 2.0, n)

    @property
    def cell_volume(self) -> float:
        return self.spacing ** 3

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            self.origin[i] + self.spacing * np.arange(self.dims[i]) for i in range(3)
        )

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (3, nx, ny, nz)."""
        ax = self.axes()
        return np.stack(np.meshgrid(*ax, indexing="ij"))

    def contains_ball(self, radius: float) -> bool:
        lo = np.asarray(self.origin)
        hi = lo + (np.asarray(self.dims) - 1) * self.spacing
        return bool(np.all(lo < -radius) and np.all(hi > radius))


@dataclass(frozen=True)
class Bump:
    """C-infinity bump a*exp(1 - 1/(1 - |x-c|^2/r^2)) for |x-c| < r, zero outside."""

    center: tuple[float, float, float]
    radius: float
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        finite = all(map(math.isfinite, self.center + (self.amplitude,)))
        if not (finite and 0 < self.radius < math.inf):
            raise ConfigurationError("bump numbers must be finite, radius positive")

    def __call__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        c = self.center
        u2 = np.asarray(
            ((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2) / self.radius ** 2
        )
        out = np.zeros(u2.shape, dtype=np.float64)
        inside = u2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return out


@dataclass(frozen=True)
class _BumpSum:
    """Sum of bumps, each inside the ball of radius `ball_radius`."""

    bumps: tuple[Bump, ...] = ()
    ball_radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "bumps", tuple(self.bumps))
        for b in self.bumps:
            if not np.linalg.norm(b.center) + b.radius <= self.ball_radius + 1e-12:
                raise ConfigurationError(f"bump at {b.center} with radius {b.radius} "
                                         f"exceeds ball radius {self.ball_radius}")

    def __call__(self, x, y, z) -> np.ndarray:
        out = np.zeros(np.broadcast(x, y, z).shape, dtype=np.float64)
        for b in self.bumps:
            out += b(x, y, z)
        return out


@dataclass(frozen=True)
class MediumSpec(_BumpSum):
    """Contrast m(x) = sum of bumps, refractive index n(x) = 1 - m(x).

    All bumps must sit inside the ball of radius `ball_radius`, and n must stay
    positive, i.e. the total contrast must be < 1 everywhere.
    """

    def __post_init__(self):
        super().__post_init__()
        if sum(max(b.amplitude, 0.0) for b in self.bumps) >= 1.0:
            raise ConfigurationError("medium contrast must satisfy n = 1 - m > 0")

    @property
    def is_homogeneous(self) -> bool:
        return all(b.amplitude == 0.0 for b in self.bumps) or not self.bumps


@dataclass(frozen=True)
class SourceStrength(_BumpSum):
    """Nonnegative variance density of the random current, a sum of bumps."""

    def __post_init__(self):
        super().__post_init__()
        if any(b.amplitude < 0 for b in self.bumps):
            raise ConfigurationError("source strength bumps must have amplitude >= 0")


def evaluate_on_grid(spec: MediumSpec | SourceStrength, grid: Grid3) -> np.ndarray:
    """Real float64 samples, shape grid.dims, of a bump sum (a MediumSpec
    contrast or a SourceStrength) at the grid nodes; deterministic."""
    if not isinstance(spec, _BumpSum):
        raise TypeError(f"cannot evaluate {type(spec).__name__} on a grid")
    vals = spec(*np.meshgrid(*grid.axes(), indexing="ij"))
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("bump sum is not finite on the grid")
    if isinstance(spec, MediumSpec) and np.any(1.0 - vals <= 0):
        raise ConfigurationError("refractive index n = 1 - m must be positive")
    return vals


class SphereMesh:
    """Quadrature mesh on the sphere of given radius.

    Gauss-Legendre nodes in the polar angle crossed with a uniform azimuthal
    rule. Exact for all spherical harmonics through degree 2*lmax, which is
    what products of two degree-lmax harmonics require.
    """

    def __init__(self, radius: float, lmax: int):
        if radius <= 0:
            raise ConfigurationError("sphere radius must be positive")
        if lmax < 1:
            raise ConfigurationError("lmax must be at least 1")
        self.radius = float(radius)
        self.lmax = int(lmax)
        self.n_theta = lmax + 1
        self.n_phi = 2 * lmax + 2

        ct, wt = leggauss(self.n_theta)
        theta = np.arccos(ct[::-1])          # increasing theta from the north pole
        wt = wt[::-1]
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        wp = 2.0 * np.pi / self.n_phi

        T, P = np.meshgrid(theta, phi, indexing="ij")
        self.theta = T.ravel()
        self.phi = P.ravel()
        self.weights = (wt[:, None] * np.full(self.n_phi, wp)).ravel() * radius ** 2

        st, ctn = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        self.normals = np.stack([st * cp, st * sp, ctn], axis=1)
        self.nodes = radius * self.normals
        # spherical unit vectors at each node, Cartesian components
        self.theta_hat = np.stack([ctn * cp, ctn * sp, -st], axis=1)
        self.phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
        # (N, 3, 2): column t of node n is theta_hat_n (t = 0) or phi_hat_n (t = 1)
        self.frame = np.stack([self.theta_hat, self.phi_hat], axis=2)

    @property
    def n_nodes(self) -> int:
        return self.theta.size

    def to_frame(self, samples: np.ndarray) -> np.ndarray:
        """(theta_hat, phi_hat) components (..., N, 2) of nodal vectors
        (..., N, 3); the normal component is dropped."""
        return np.einsum("...nj,njt->...nt", samples, self.frame, optimize=True)

    def from_frame(self, comps: np.ndarray) -> np.ndarray:
        """Tangential nodal vectors (..., N, 3) from their frame components
        (..., N, 2)."""
        return comps[..., 0, None] * self.theta_hat + comps[..., 1, None] * self.phi_hat


def trilinear_interpolate(values: np.ndarray, grid: Grid3, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of grid samples at arbitrary points.

    values: (..., nx, ny, nz); points: (N, 3). Returns (..., N).
    Points must lie inside the grid box.
    """
    flat = np.moveaxis(values.reshape(values.shape[:-3] + (-1,)), -1, 0)
    return np.moveaxis(_trilinear_sum(flat, *_trilinear_stencil(grid, points)), 0, -1)


def _trilinear_stencil(grid: Grid3, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner cells (8, N), as flat indices into grid.dims, and weights (8, N)
    of trilinear interpolation at points (N, 3) inside the grid box."""
    pts = np.asarray(points, dtype=np.float64)
    u = (pts - np.asarray(grid.origin)) / grid.spacing
    if np.any(u < -1e-9) or np.any(u > np.asarray(grid.dims) - 1 + 1e-9):
        raise ValueError("interpolation point outside grid box")
    i0 = np.clip(np.floor(u).astype(np.int64), 0, np.asarray(grid.dims) - 2)
    f = u - i0
    n, cells, weights = grid.dims, [], []
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = f[:, 1] if dy else 1.0 - f[:, 1]
            for dz in (0, 1):
                wz = f[:, 2] if dz else 1.0 - f[:, 2]
                weights.append(wx * wy * wz)
                cells.append(((i0[:, 0] + dx) * n[1] + i0[:, 1] + dy) * n[2] + i0[:, 2] + dz)
    return np.array(cells), np.array(weights)


def _trilinear_sum(flat: np.ndarray, cells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Samples (K, ...) interpolated with the corners `cells` (8, N), indices
    into the first axis, and the `weights` (8, N) of `_trilinear_stencil`:
    (N, ...), summed corner by corner: rows gathered from `flat` as laid
    out, weighted on their float64 view (the bits of a complex product)."""
    out = np.zeros(cells.shape[1:] + flat.shape[1:], dtype=np.result_type(flat, np.float64))
    acc = out.view(np.float64).reshape(len(out), -1)
    for c, wc in zip(cells, weights[:, :, None]):
        part = flat[c].astype(out.dtype, copy=False).view(np.float64).reshape(len(out), -1)
        part *= wc
        acc += part
    return out


_FIELD_MAGIC = b"EMFLD001"


def write_field(path, values: np.ndarray, grid: Grid3) -> None:
    """Little-endian binary dump of samples `components + grid.dims`, real or
    complex.

    Layout: 8-byte magic, then 8 float64 values (nx, ny, nz, ncomp, ox, oy, oz,
    h), then the samples as interleaved re/im float64 (im = 0 for real
    samples), component-major with C node ordering.
    """
    values = np.asarray(values)
    if values.shape[-3:] != grid.dims:
        raise ValueError(f"value shape {values.shape} does not end in the grid dims {grid.dims}")
    data = values.reshape((-1,) + grid.dims)
    header = np.asarray(
        [*grid.dims, data.shape[0], *grid.origin, grid.spacing], dtype="<f8"
    )
    inter = np.empty(data.shape + (2,), dtype="<f8")
    inter[..., 0] = data.real
    inter[..., 1] = data.imag
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(header.tobytes())
        fh.write(inter.tobytes())

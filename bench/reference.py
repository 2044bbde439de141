"""Reference computations made apart from the program.

Nothing here imports `stochmaxwell`. Each function re-derives, from the
documented formats and formulas, a quantity the benchmark compares the
program's outputs against:

- readers for the `traces.bin` + `manifest.json` ensemble store and the
  `sigma_rec.bin` field dump, with the manifest digest verified;
- the grid, sphere mesh and bump profile the configs describe;
- the white-noise seed law `default_rng([seed, r, 0x57484E53])`;
- a direct dyadic-Green summation of the homogeneous-medium field;
- a 1-D Gauss-quadrature radial Fourier transform of a centred bump.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
from numpy.polynomial.legendre import leggauss

NOISE_STREAM_TAG = 0x57484E53
TRACE_MAGIC = b"EMTRC001"
FIELD_MAGIC = b"EMFLD001"


class StoreError(ValueError):
    """A stored file does not follow its documented layout or digest."""


# -- stores ---------------------------------------------------------------


def manifest_digest(manifest: dict) -> str:
    """sha256 of the manifest's canonical JSON without its own `hash` field."""
    clean = {k: v for k, v in manifest.items() if k != "hash"}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def read_manifest(path: str) -> dict:
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest_digest(manifest) != manifest.get("hash"):
        raise StoreError(f"{path}: manifest hash does not match its content")
    return manifest


def read_traces(ens_dir: str) -> tuple[np.ndarray, dict]:
    """Traces (M, N, 3) complex from `traces.bin`: magic, (M, N) as <i8, then
    interleaved re/im <f8 records in realization-major order. The payload
    digest and the manifest hash are both verified."""
    manifest = read_manifest(os.path.join(ens_dir, "manifest.json"))
    with open(os.path.join(ens_dir, manifest["records"]), "rb") as fh:
        if fh.read(8) != TRACE_MAGIC:
            raise StoreError("bad trace magic")
        M, N = (int(v) for v in np.frombuffer(fh.read(16), dtype="<i8"))
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != manifest["data_sha256"]:
        raise StoreError("trace payload does not match the manifest digest")
    if (M, N) != (manifest["realizations"], manifest["mesh_nodes"]):
        raise StoreError("trace header disagrees with the manifest")
    if len(payload) != M * N * 3 * 2 * 8:
        raise StoreError("trace payload has the wrong length")
    raw = np.frombuffer(payload, dtype="<f8").reshape(M, N, 3, 2)
    return raw[..., 0] + 1j * raw[..., 1], manifest


def read_field(path: str) -> tuple[np.ndarray, tuple, float]:
    """Samples (ncomp, nx, ny, nz) complex, origin and spacing of a field dump:
    magic, 8 <f8 header values (nx, ny, nz, ncomp, ox, oy, oz, h), then
    interleaved re/im <f8 samples, component-major in C order."""
    with open(path, "rb") as fh:
        if fh.read(8) != FIELD_MAGIC:
            raise StoreError("bad field magic")
        header = np.frombuffer(fh.read(64), dtype="<f8")
        payload = fh.read()
    dims = tuple(int(v) for v in header[:3])
    ncomp = int(header[3])
    if len(payload) != ncomp * int(np.prod(dims)) * 2 * 8:
        raise StoreError("field payload has the wrong length")
    raw = np.frombuffer(payload, dtype="<f8").reshape((ncomp,) + dims + (2,))
    return raw[..., 0] + 1j * raw[..., 1], tuple(header[4:7]), float(header[7])


def read_sigma_hat(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xi (n, 3), sigma_hat (n,) complex, stderr (n,)) from `sigma_hat.csv`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["xi_x", "xi_y", "xi_z", "re_sigma_hat", "im_sigma_hat", "stderr"]:
        raise StoreError("unexpected sigma_hat.csv header")
    a = np.asarray(rows[1:], dtype=np.float64)
    return a[:, :3], a[:, 3] + 1j * a[:, 4], a[:, 5]


# -- geometry -------------------------------------------------------------


def ball_grid(R_prime: float, n: int) -> tuple[float, float]:
    """(origin, spacing) of the default cube: side 2R'(n-1)/(n-5), n nodes per
    axis, centred on the origin."""
    side = 2.0 * R_prime * (n - 1) / (n - 5)
    return -side / 2.0, side / (n - 1)


def grid_axis(R_prime: float, n: int) -> np.ndarray:
    origin, h = ball_grid(R_prime, n)
    return origin + h * np.arange(n)


def bump_profile(u: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - u^2)) for u < 1, zero outside."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def bump_on_grid(center, radius: float, amplitude: float, axis: np.ndarray) -> np.ndarray:
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    d = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2)
    return amplitude * bump_profile(d / radius)


def sphere_mesh(R: float, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes (N, 3), normals (N, 3)): Gauss-Legendre polar nodes with theta
    increasing from the north pole, crossed with 2 lmax + 2 uniform azimuths,
    polar-major order."""
    ct, _ = leggauss(lmax + 1)
    theta = np.arccos(ct[::-1])
    phi = 2.0 * np.pi * np.arange(2 * lmax + 2) / (2 * lmax + 2)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    T, P = T.ravel(), P.ravel()
    normals = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=1)
    return R * normals, normals


# -- white noise and the direct Green summation ---------------------------


def white_noise(sigma_grid: np.ndarray, h: float, seed: int, r: int) -> np.ndarray:
    """Current J of realization r: three standard normals per node, drawn as one
    (3, nx, ny, nz) block from default_rng([seed, r, tag]), times sqrt(sigma)/h^1.5."""
    rng = np.random.default_rng([int(seed), int(r), NOISE_STREAM_TAG])
    xi = rng.standard_normal((3,) + sigma_grid.shape)
    return xi * (np.sqrt(np.maximum(sigma_grid, 0.0)) / h ** 1.5)[None]


def green_apply(k: float, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """G(x_n, y_c) p_c summed over c, with G = ik g I + (i/k) hess g and
    g = e^{ikr}/(4 pi r). x (N, 3), y (C, 3), p (C, 3) -> (N, 3)."""
    d = x[:, None, :] - y[None, :, :]
    r = np.sqrt(np.einsum("ncj,ncj->nc", d, d))
    g = np.exp(1j * k * r) / (4.0 * np.pi * r)
    a = 1j * k - 1.0 / r
    g1 = g * a                       # g'
    g2 = g * (a * a + 1.0 / r ** 2)  # g''
    rp = np.einsum("ncj,cj->nc", d, p) / r  # rhat . p
    # hess g p = g'' (rhat.p) rhat + (g'/r)(p - (rhat.p) rhat)
    radial = (g2 - g1 / r) * rp / r
    out = np.einsum("nc,ncj->nj", (1j / k) * radial, d)
    return out + np.einsum("nc,cj->nj", 1j * k * g + (1j / k) * g1 / r, p)


def direct_trace(k: float, J: np.ndarray, axis: np.ndarray, h: float,
                 nodes: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Tangential trace E x nu of E = h^3 sum_c G(x, y_c) J_c over the nonzero
    cells of J (3, nx, ny, nz)."""
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    sup = np.any(J != 0.0, axis=0)
    y = np.stack([X[sup], Y[sup], Z[sup]], axis=1)
    p = J[:, sup].T
    E = h ** 3 * green_apply(k, nodes, y, p)
    return np.cross(E, normals)


# -- radial Fourier transform ---------------------------------------------


def radial_fourier(profile, support: float, q, n_nodes: int = 200) -> np.ndarray:
    """int_{|x| < support} f(|x|) e^{-i q . x} dx = 4 pi int_0^a f(s) s^2
    sinc(q s) ds for a radial profile f, by n_nodes-point Gauss-Legendre on
    [0, a]."""
    u, w = leggauss(n_nodes)
    s = 0.5 * support * (u + 1.0)
    w = 0.5 * support * w
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))
    kern = np.sinc(np.outer(q, s) / np.pi)  # sin(qs)/(qs)
    return 4.0 * np.pi * kern @ (w * profile(s) * s ** 2)


def bump_transform(radius: float, amplitude: float, q) -> np.ndarray:
    """Fourier transform of a centred bump at frequencies of modulus q."""
    return radial_fourier(lambda s: amplitude * bump_profile(s / radius), radius, q)

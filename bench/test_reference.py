"""Closed-form tests of the benchmark's reference computations.

Run with `python3 bench/test_reference.py` (or pytest on this file).
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def test_green_matches_dipole_closed_form():
    # textbook dipole field: (k^2 + grad div)(g p) =
    # e^{ikr}/(4 pi) [k^2 (rhat x p) x rhat / r + (3 rhat (rhat.p) - p)(1/r^3 - ik/r^2)]
    rng = np.random.default_rng(7)
    k = 2.0
    x = rng.uniform(-2, 2, (5, 3))
    y = np.array([[0.1, -0.2, 0.3]])
    p = np.array([[0.3 + 0.1j, -1.0, 0.5j]])
    got = ref.green_apply(k, x, y, p)
    d = x - y
    r = np.linalg.norm(d, axis=1)[:, None]
    rh = d / r
    rp = np.sum(rh * p, axis=1)[:, None]
    dip = np.exp(1j * k * r) / (4 * np.pi) * (
        k ** 2 * np.cross(np.cross(rh, p), rh) / r
        + (3 * rh * rp - p) * (1 / r ** 3 - 1j * k / r ** 2)
    )
    want = (1j / k) * dip
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_direct_trace_is_tangential():
    axis = ref.grid_axis(1.3, 9)
    _, h = ref.ball_grid(1.3, 9)
    sig = ref.bump_on_grid((0, 0, 0), 0.9, 0.1, axis)
    J = ref.white_noise(sig, h, 3, 0)
    nodes, normals = ref.sphere_mesh(1.0, 4)
    tr = ref.direct_trace(2.0, J, axis, h, nodes, normals)
    assert np.max(np.abs(np.sum(tr * normals, axis=1))) <= 1e-14 * np.max(np.abs(tr))


def test_radial_fourier_ball_indicator():
    a = 0.8
    q = np.array([0.0, 0.3, 1.7, 5.0, 11.0])
    got = ref.radial_fourier(lambda s: np.ones_like(s), a, q)
    qs = q[1:]
    want = np.concatenate(
        [[4 * np.pi * a ** 3 / 3],
         4 * np.pi * (np.sin(qs * a) - qs * a * np.cos(qs * a)) / qs ** 3]
    )
    assert np.max(np.abs(got - want)) <= 1e-12


def test_bump_transform_at_zero_is_grid_integral():
    # the transform at q = 0 is the bump's integral, which a fine grid sum matches
    axis = np.linspace(-1, 1, 161)
    h = axis[1] - axis[0]
    vals = ref.bump_on_grid((0, 0, 0), 0.95, 0.1, axis)
    got = ref.bump_transform(0.95, 0.1, 0.0)[0]
    assert abs(vals.sum() * h ** 3 - got) <= 1e-6 * got


def _write_traces(dirname, arr, tamper=False):
    inter = np.stack([arr.real, arr.imag], axis=-1).astype("<f8")
    payload = inter.tobytes()
    with open(os.path.join(dirname, "traces.bin"), "wb") as fh:
        fh.write(ref.TRACE_MAGIC)
        fh.write(np.asarray(arr.shape[:2], dtype="<i8").tobytes())
        fh.write(bytes([payload[0] ^ 1]) + payload[1:] if tamper else payload)
    manifest = {
        "records": "traces.bin",
        "realizations": arr.shape[0],
        "mesh_nodes": arr.shape[1],
        "data_sha256": hashlib.sha256(payload).hexdigest(),
    }
    manifest["hash"] = ref.manifest_digest(manifest)
    with open(os.path.join(dirname, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


def test_trace_reader_roundtrip_and_digest():
    arr = (np.arange(2 * 4 * 3) + 1j * np.arange(24)[::-1]).reshape(2, 4, 3)
    with tempfile.TemporaryDirectory() as d:
        _write_traces(d, arr)
        got, manifest = ref.read_traces(d)
        assert np.array_equal(got, arr) and manifest["realizations"] == 2
        _write_traces(d, arr, tamper=True)
        try:
            ref.read_traces(d)
        except ref.StoreError:
            pass
        else:
            raise AssertionError("tampered payload was accepted")


def test_field_reader_roundtrip():
    vals = (np.arange(2 * 3 * 4) - 1j).reshape(1, 2, 3, 4)
    header = np.asarray([2, 3, 4, 1, -1.0, -2.0, -3.0, 0.5], dtype="<f8")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.bin")
        with open(path, "wb") as fh:
            fh.write(ref.FIELD_MAGIC + header.tobytes())
            fh.write(np.stack([vals.real, vals.imag], axis=-1).astype("<f8").tobytes())
        got, origin, h = ref.read_field(path)
    assert np.array_equal(got, vals) and origin == (-1.0, -2.0, -3.0) and h == 0.5


if __name__ == "__main__":
    tests = [v for n, v in sorted(globals().items()) if n.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")

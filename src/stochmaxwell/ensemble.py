"""Trace-ensemble generation and the on-disk store (binary records + JSON
manifest).

Ensembles are reproducible from (master seed, index) alone; the manifest
records every physical and numerical parameter plus a content hash, so a
rerun with the same manifest is bit-identical.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .forward import HomogeneousTraceMap, noise_amplitude, noise_positions, noise_values
from .geometry import (
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    evaluate_on_grid,
)

__all__ = [
    "generate_ensemble",
    "write_ensemble",
    "read_ensemble",
    "manifest_hash",
]

_TRACE_MAGIC = b"EMTRC001"
_REALIZATION_CHUNK = 256  # currents per trace-map product in generate_ensemble


def generate_ensemble(
    k: float,
    medium: MediumSpec,
    sigma: SourceStrength,
    grid: Grid3,
    mesh: SphereMesh,
    M: int,
    master_seed: int,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> np.ndarray:
    """Boundary traces E x nu of M independent white-noise realizations.

    One `HomogeneousTraceMap` of the medium (its scattered term solved to
    tol within max_iter iterations) is applied to _REALIZATION_CHUNK
    currents at a time, one matrix product per chunk, so memory is the map,
    one chunk and the output. A solver failure in the map build raises
    SolverError (failure budget is zero).
    """
    if M < 1:
        raise ConfigurationError("ensemble size must be at least 1")
    sig = evaluate_on_grid(sigma, grid).values.real
    mask = sig > 0
    traces = np.zeros((M, mesh.n_nodes, 3), dtype=np.complex128)
    if not np.any(mask):
        return traces
    tmap = HomogeneousTraceMap(k, grid, mask, mesh, medium, tol, max_iter)
    amp = noise_amplitude(sig, grid.spacing)[mask]
    positions = noise_positions(mask)
    J = np.empty((min(M, _REALIZATION_CHUNK), tmap.n_cells, 3))
    for lo in range(0, M, _REALIZATION_CHUNK):
        n = min(_REALIZATION_CHUNK, M - lo)
        for i in range(n):
            J[i] = noise_values(amp, master_seed, lo + i, positions).T
        traces[lo : lo + n] = tmap.traces(J[:n])
    return traces


def manifest_hash(manifest: dict) -> str:
    """Stable content hash of a manifest (its own hash field excluded)."""
    clean = {k: v for k, v in manifest.items() if k != "hash"}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_ensemble(out_dir, traces: np.ndarray, manifest: dict) -> dict:
    """Write trace records and the JSON manifest; returns the final manifest.

    The binary layout is the magic, (M, N) as little-endian int64, then the
    records as interleaved re/im float64 in realization-major order, which is
    the memory layout of little-endian complex128. The manifest gains the data
    digest and the overall manifest hash.
    """
    os.makedirs(out_dir, exist_ok=True)
    arr = np.ascontiguousarray(traces, dtype="<c16")
    M, N, _ = arr.shape
    payload = arr.tobytes()
    bin_path = os.path.join(out_dir, "traces.bin")
    with open(bin_path, "wb") as fh:
        fh.write(_TRACE_MAGIC)
        fh.write(np.asarray([M, N], dtype="<i8").tobytes())
        fh.write(payload)
    manifest = dict(manifest)
    manifest["records"] = "traces.bin"
    manifest["realizations"] = M
    manifest["mesh_nodes"] = N
    manifest["data_sha256"] = hashlib.sha256(payload).hexdigest()
    manifest["hash"] = manifest_hash(manifest)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_ensemble(out_dir) -> tuple[np.ndarray, dict]:
    """Read a store written by `write_ensemble`; a corrupt store raises
    ConfigurationError."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        shape = (manifest["realizations"], manifest["mesh_nodes"])
        records, digest = manifest["records"], manifest["data_sha256"]
        stored_hash = manifest["hash"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"unreadable ensemble manifest: {exc!r}") from exc
    if manifest_hash(manifest) != stored_hash:
        raise ConfigurationError("manifest hash mismatch; the run directory is corrupt")
    try:
        with open(os.path.join(out_dir, records), "rb") as fh:
            magic, header = fh.read(8), fh.read(16)
            # read into a mutable buffer, so the returned array is writable
            # without a copy
            payload = bytearray(max(0, os.fstat(fh.fileno()).st_size - fh.tell()))
            fh.readinto(payload)
    except OSError as exc:
        raise ConfigurationError(f"unreadable trace records {records!r}: {exc}") from exc
    if magic != _TRACE_MAGIC:
        raise ConfigurationError(f"bad trace magic {magic!r}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ConfigurationError("trace data does not match its manifest digest")
    # the (M, N) header sits outside the digest, so it is checked on its own
    if header != np.asarray(shape, dtype="<i8").tobytes():
        raise ConfigurationError(f"trace header does not match the manifest shape {shape}")
    return np.frombuffer(payload, dtype="<c16").reshape(shape + (3,)), manifest

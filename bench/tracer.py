"""In-memory span and counter recorder for the traced benchmark run.

`install` wraps the program's public functions and methods from outside: a
module-level function is replaced at every name its calling modules imported
it under, a method on its class. Each call records a span (name, start, end,
parent index) on the process's CPU clock, the clock of the end-to-end times;
the run id names the process. A few wrappers also add
counters computed from arguments and results (iterations, array shapes).
Nothing is written until `dump` is called at the end of the process.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

# span name -> (defining module, function, modules that call it by that name)
FUNCTIONS = {
    "geometry.evaluate_on_grid": (
        "geometry", "evaluate_on_grid", ("forward", "cgo", "reconstruct", "ensemble", "cli"),
    ),
    "geometry.trilinear_interpolate": ("geometry", "trilinear_interpolate", ("forward", "cgo")),
    "forward.noise_values": ("forward", "noise_values", ("ensemble", "cli")),
    "forward.extract_trace": ("forward", "extract_trace", ("forward",)),
    "capacity.spherical_h1": ("capacity", "spherical_h1", ("capacity",)),
    "cgo.build_zeta_eta": ("cgo", "build_zeta_eta", ("cgo", "reconstruct", "cli")),
    "cgo.solve_remainder": ("cgo", "solve_cgo_remainder", ("reconstruct", "cli")),
    "cgo.on_sphere": ("cgo", "cgo_on_sphere", ("reconstruct", "cli")),
    "reconstruct.measure_epsilon": ("reconstruct", "measure_epsilon", ("reconstruct", "cli")),
    "reconstruct.dual_vector": ("reconstruct", "dual_functional_vector", ("reconstruct", "cli")),
    "reconstruct.build_xi_lattice": ("reconstruct", "build_xi_lattice", ("reconstruct",)),
    "reconstruct.reconstruct_sigma": ("reconstruct", "reconstruct_sigma", ("cli",)),
    "reconstruct.hermitian_symmetrize": ("reconstruct", "hermitian_symmetrize", ("reconstruct",)),
    "reconstruct.fourier_synthesis": ("reconstruct", "fourier_synthesis", ("reconstruct",)),
    "ensemble.generate": ("ensemble", "generate_ensemble", ("cli",)),
    "ensemble.write": ("ensemble", "write_ensemble", ("cli",)),
    "ensemble.read": ("ensemble", "read_ensemble", ("cli",)),
    "cli.run_forward": ("cli", "run_forward", ("cli",)),
    "cli.run_reconstruct": ("cli", "run_reconstruct", ("cli",)),
}

# span name -> (defining module, class, method)
METHODS = {
    "greens.convolver_build": ("greens", "FreeConvolver", "__init__"),
    "greens.convolver_apply": ("greens", "FreeConvolver", "apply_array"),
    "forward.trace_map_build": ("forward", "HomogeneousTraceMap", "__init__"),
    "forward.trace_map_apply": ("forward", "HomogeneousTraceMap", "traces"),
    "forward.maxwell_solve": ("forward", "MaxwellSolver", "solve"),
    "sphharm.basis_build": ("sphharm", "VshBasis", "__init__"),
    "sphharm.decompose": ("sphharm", "VshBasis", "decompose"),
    "sphharm.synthesize": ("sphharm", "VshBasis", "synthesize"),
    "capacity.build": ("capacity", "CapacityOperator", "__init__"),
    "capacity.apply": ("capacity", "CapacityOperator", "apply"),
    "cgo.resolvent_build": ("cgo", "ConjugatedResolvent", "__init__"),
    "cgo.resolvent_apply": ("cgo", "ConjugatedResolvent", "apply"),
}

FLOPS_PER_COMPLEX_MAC = 8


def _trace_map_flops(args, kwargs, out):
    # (M, 3C) currents x (3C, 3N) map, complex after the upcast of J
    tmap, J = args[0], args[1]
    return {"forward.trace_map_apply.gflop_computed":
            FLOPS_PER_COMPLEX_MAC * J.shape[0] * 3 * tmap.n_cells * 3 * tmap.mesh.n_nodes / 1e9}


def _trace_matmul_flops(args, kwargs, out):
    # reconstruct_sigma evaluates every dual (2 per frame per xi) on every
    # realization in one (M, 3N) x (3N, n_duals) product
    M, N = np.shape(args[0])[:2]
    n_duals = 2 * kwargs.get("n_frames", 1) * len(out.xi_nodes)
    return {"reconstruct.trace_matmul.gflop_computed":
            FLOPS_PER_COMPLEX_MAC * M * 3 * N * n_duals / 1e9}


def _remainder_nonzero(args, kwargs, out):
    return {"cgo.nonzero_remainder":
            float(bool(np.any(out.f.values) or np.any(out.V.values)))}


def _store_bytes(args, kwargs, out):
    return {"ensemble.store_bytes":
            float(os.path.getsize(os.path.join(args[0], out["records"])))}


COUNTER_SPAN = "tracer.counters"
COUNTERS = {
    "forward.trace_map_apply": _trace_map_flops,
    "forward.maxwell_solve": lambda a, kw, out: {"forward.ls_iterations": float(out.iterations)},
    "cgo.solve_remainder": _remainder_nonzero,
    "reconstruct.build_xi_lattice": lambda a, kw, out: {"reconstruct.xi_nodes": float(len(out[0]))},
    "reconstruct.reconstruct_sigma": _trace_matmul_flops,
    "ensemble.write": _store_bytes,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.process_time(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.process_time()
            if count is not None:
                c0 = time.process_time()
                for key, val in count(args, kwargs, out).items():
                    counters[key] = counters.get(key, 0.0) + val
                # the tracer's own work: as a child span it stays out of the
                # caller's self time and is reported under no layer
                spans.append([COUNTER_SPAN, c0, time.process_time(), stack[-1] if stack else -1])
            return out

        return traced

    def install(self, package: str = "stochmaxwell") -> None:
        """Wrap every target; a target missing from the program is an error, so
        a renamed layer cannot silently read zero."""
        def mod(name):
            return importlib.import_module(f"{package}.{name}")

        for name, (owner, attr, callers) in FUNCTIONS.items():
            fn = getattr(mod(owner), attr)
            traced = self.wrap(name, fn)
            for caller in callers:
                m = mod(caller)
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, traced)
        for name, (owner, cls_name, meth) in METHODS.items():
            cls = getattr(mod(owner), cls_name)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counters": self.counters}, fh)


def self_times(spans) -> tuple[dict, dict]:
    """Per-name call counts and self time (span minus its direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, _), c in zip(spans, child):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - c)
    return calls, self_s

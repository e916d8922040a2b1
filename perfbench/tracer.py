"""Spans recorded from outside the package, and the per-layer metrics.

The tracer replaces each traced package function by a wrapper in every
cpstensor namespace that binds it (``from``-imports included; a function-local
import reads the module attribute at call time, so it is covered too).  Each
call records a span: name, start, end, parent span and, for some names, a
value taken from the call (solver iterations, term counts).  Constructions of
``DenseTensor`` are counted by wrapping its ``__post_init__``.  Spans live in
flat arrays in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, function, value recorded from the call)
TARGETS = [
    ("build_model", "cpstensor.rank_one", "build_matrix_model", None),
    ("solve", "cpstensor.rank_one", "solve_sdp", "iterations"),
    ("solve", "cpstensor.rank_one", "solve_nuclear", "iterations"),
    ("certify", "cpstensor.rank_one", "certify_and_recover", None),
    ("project_cps", "cpstensor.rank_one", "project_cps_subspace", None),
    ("prox", "cpstensor.linalg", "project_psd", None),
    ("prox", "cpstensor.linalg", "eig_soft_threshold", None),
    ("herm_eig", "cpstensor.linalg", "herm_eig", None),
    ("symmetrize_ps", "cpstensor.tensor", "symmetrize_ps", None),
    ("pi_reshape", "cpstensor.reshaping", "matricize_pi", None),
    ("pi_reshape", "cpstensor.reshaping", "dematricize_pi", None),
    ("extract", "cpstensor.reshaping", "extract_rank_one_vector", None),
    ("cps_decompose", "cpstensor.decompose", "cps_decompose", "result_len"),
    ("spectral_split", "cpstensor.decompose", "spectral_split", None),
    ("sym_rank_one", "cpstensor.decompose", "symmetric_rank_one_decompose", None),
    ("hilbert_terms", "cpstensor.decompose", "hilbert_terms", None),
    ("merge", "cpstensor.decompose", "merge_terms", "arg_len"),
    ("radar_tensor", "cpstensor.applications", "radar_tensor", None),
    ("us_eigen", "cpstensor.applications", "us_eigen", None),
]

OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP] + sorted({name for name, *_ in TARGETS})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("q")
        self.inits_start = array("q")
        self.inits_end = array("q")
        self.inits = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(-1)
        self.inits_start.append(self.inits)
        self.inits_end.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.inits_end[idx] = self.inits
        self._stack.pop()

    def _wrap(self, name: str, fn, value: str | None):
        def traced(*args, **kwargs):
            if value == "arg_len":
                args = (list(args[0]),) + args[1:]
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if value == "iterations":
                self.value[idx] = result.iterations
            elif value == "result_len":
                self.value[idx] = len(result)
            elif value == "arg_len":
                self.value[idx] = len(args[0])
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "cpstensor" or k.startswith("cpstensor.")]
        for name, modname, fname, value in TARGETS:
            fn = getattr(sys.modules.get(modname), fname, None)
            if fn is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(name, fn, value)
            for mod in modules:
                for attr, bound in list(vars(mod).items()):
                    if bound is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        dense = sys.modules["cpstensor.tensor"].DenseTensor
        post_init = dense.__post_init__

        def counted(obj):
            self.inits += 1
            post_init(obj)

        self._restore.append((dense, "__post_init__", post_init))
        dense.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            value=np.frombuffer(self.value, dtype=np.int64),
        )

    # -- metrics -------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a layer the workload never calls reads 0."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        value = np.frombuffer(self.value, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inits = np.frombuffer(self.inits_end, dtype=np.int64) - np.frombuffer(
            self.inits_start, dtype=np.int64
        )
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        def mask(label: str) -> np.ndarray:
            return name == self._ids[label]

        def ratio(num: float, den: float) -> float:
            return float(num / den) if den else 0.0

        def ms_per_call(label: str, times=dur) -> float:
            m = mask(label)
            return ratio(1e3 * times[m].sum(), m.sum())

        solve, certify, us = mask("solve"), mask("certify"), mask("us_eigen")
        in_solve = certify & has_parent & solve[np.maximum(parent, 0)]
        iters = int(value[solve & (value >= 0)].sum())
        admm_s = dur[solve].sum() - dur[in_solve].sum()
        admm_inits = int(inits[solve].sum() - inits[in_solve].sum())
        decompositions = int(mask("cps_decompose").sum())
        done = mask("cps_decompose") & (value >= 0)
        us_solves = int((solve & has_parent & us[np.maximum(parent, 0)]).sum())

        def per_decomposition(label: str) -> float:
            return ratio(1e3 * self_time[mask(label)].sum(), decompositions)

        return {
            "rank_one.admm_iters": ratio(iters, int(solve.sum())),
            "rank_one.admm_ms_per_iter": ratio(1e3 * admm_s, iters),
            "rank_one.build_model_ms": ms_per_call("build_model"),
            "rank_one.project_cps_ms": ms_per_call("project_cps"),
            "rank_one.certify_ms": ms_per_call("certify"),
            "linalg.herm_eig_calls": ratio(int(mask("herm_eig").sum()), int(mask(OP).sum())),
            "linalg.herm_eig_ms": ms_per_call("herm_eig"),
            "linalg.prox_ms": ms_per_call("prox", self_time),
            "tensor.symmetrize_ps_ms": ms_per_call("symmetrize_ps"),
            "tensor.dense_tensor_inits": ratio(admm_inits, iters),
            "reshaping.pi_reshape_ms": ms_per_call("pi_reshape"),
            "reshaping.extract_ms": ms_per_call("extract"),
            "decompose.spectral_split_ms": per_decomposition("spectral_split"),
            "decompose.sym_rank_one_ms": per_decomposition("sym_rank_one"),
            "decompose.hilbert_terms_ms": per_decomposition("hilbert_terms"),
            "decompose.merge_ms": per_decomposition("merge"),
            "decompose.raw_terms": ratio(int(value[mask("merge") & (value >= 0)].sum()), decompositions),
            "decompose.terms_out": ratio(int(value[done].sum()), int(done.sum())),
            "applications.radar_tensor_ms": ms_per_call("radar_tensor"),
            "applications.us_solves_per_query": ratio(us_solves, int(us.sum())),
        }

"""Workload inputs and operations.

A workload is one fixed round of operations, repeated whole until the run's
time is used up, so every run attempts the same mix and the same share of
failures.  The run seed changes the inputs but not the work:

* rank-one inputs are the tensors of acceptance criterion 8 (and fixed random
  symmetric tensors for the US lifts) turned by a seeded random unitary
  change of basis.  ADMM is unitarily equivariant, so iteration counts, and
  with them the time per operation, stay the same while every entry changes;
* radar scenarios take their reference code seed from the twenty seeds of
  acceptance criterion 9, picked by the run seed (iteration counts do not
  depend on the reference code);
* decomposition inputs are fresh random CPS tensors, whose term counts depend
  only on their shape.

Inputs are generated here with numpy (the same draws as the package's
``random_cps``), so the program receives only the generated tensors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import cpstensor.applications as ap
import cpstensor.decompose as dc
import cpstensor.rank_one as r1
from cpstensor.tensor import DenseTensor

US_RETRIES = 5
US_EPS = 1e-4


class NotCertified(Exception):
    """The solver returned without a rank-one certificate."""


@dataclass
class Op:
    """One user-level query: ``run`` calls the package, ``view`` turns its
    output into plain values, ``check`` verifies them apart from the package."""

    label: str
    shape: str  # operations with equal shape share one warm-up
    run: Callable[[], Any]
    view: Callable[[Any], dict]
    check: Callable[[dict, np.random.Generator], None]


def _half_average(w: np.ndarray, d: int) -> np.ndarray:
    perms = list(itertools.permutations(range(d)))
    acc = np.zeros_like(w)
    for p in perms:
        for q in perms:
            acc += np.transpose(w, [*p, *(d + k for k in q)])
    return acc / len(perms) ** 2


def random_cps_entries(n: int, d: int, seed: int) -> np.ndarray:
    """Gaussian entries, averaged within each mode half, Hermitian part."""
    rng = np.random.default_rng(seed)
    shape = (n,) * (2 * d)
    w = _half_average(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), d)
    swap = list(range(d, 2 * d)) + list(range(d))
    return 0.5 * (w + np.conj(np.transpose(w, swap)))


def random_symmetric_entries(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
    perms = list(itertools.permutations(range(d)))
    return sum(np.transpose(w, p) for p in perms) / len(perms)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _apply_modes(entries: np.ndarray, mats) -> np.ndarray:
    """Contract mode k of entries with the rows of mats[k]."""
    out = entries
    for k, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(out, m, axes=([k], [0])), -1, k)
    return out


def rotate_cps(entries: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T' with T'(conj(x)^d x^d) = T(conj(Vx)^d (Vx)^d); T' stays CPS."""
    d = entries.ndim // 2
    return _apply_modes(entries, [v.conj()] * d + [v] * d)


def rotate_symmetric(entries: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Z' with <Z', x^{ox d}> = <Z, (Vx)^{ox d}>; Z' stays symmetric."""
    return _apply_modes(entries, [v.conj()] * entries.ndim)


def _report_view(entries: np.ndarray):
    def view(report) -> dict:
        if not report.certified:
            raise NotCertified(f"rank-one ratio {report.rank_one_ratio:.3e}")
        return {
            "entries": entries,
            "lam": float(report.eigenpair.value.real),
            "vector": np.asarray(report.eigenpair.vector),
            "linear_objective": float(report.linear_objective),
        }

    return view


def _solve(method: str, t: DenseTensor):
    # looked up at call time, so a traced run sees the wrapped functions
    model = r1.build_matrix_model(t)
    return r1.solve_sdp(model) if method == "sdp" else r1.solve_nuclear(model)


def rank_one_ops(n: int, base_seeds, rng: np.random.Generator) -> list[Op]:
    """Lifted SDP and nuclear solves on rotated criterion-8 tensors."""
    ops = []
    for base in base_seeds:
        entries = rotate_cps(random_cps_entries(n, 2, base), random_unitary(n, rng))
        t = DenseTensor(n, 4, entries)
        for method in ("sdp", "nuclear"):
            ops.append(
                Op(
                    label=f"cps n={n} seed={base} {method}",
                    shape=f"cps{n}",
                    run=lambda t=t, method=method: _solve(method, t),
                    view=_report_view(entries),
                    check=checks.check_rank_one,
                )
            )
    return ops


def radar_ops(n: int, s0_seeds) -> list[Op]:
    """Radar quartic minimization: the tensor is built inside the operation."""
    ops = []
    for s0_seed in s0_seeds:
        scenario = ap.default_scenario(n, rho=30.0, s0_seed=s0_seed)
        for method in ("sdp", "nuclear"):
            built = {}

            def run(scenario=scenario, method=method, built=built):
                t = ap.radar_tensor(scenario)
                neg = DenseTensor(t.n, t.order, -t.entries)
                built["entries"] = neg.entries
                return _solve(method, neg)

            def view(report, scenario=scenario, built=built):
                values = _report_view(built["entries"])(report)
                values["scenario"] = scenario
                return values

            ops.append(
                Op(
                    label=f"radar n={n} s0_seed={s0_seed} {method}",
                    shape=f"radar{n}",
                    run=run,
                    view=view,
                    check=checks.check_radar,
                )
            )
    return ops


def us_op(label: str, shape: str, z: DenseTensor, published: str | None) -> Op:
    def view(result) -> dict:
        return {
            "entries": np.asarray(z.entries),
            "lam": float(result.value),
            "vector": np.asarray(result.vector),
            "eps_used": US_EPS if len(result.attempts) > 1 else 0.0,
            "published": published,
        }

    return Op(
        label=label,
        shape=shape,
        run=lambda: ap.us_eigen(z, retries=US_RETRIES, eps=US_EPS, seed=0),
        view=view,
        check=checks.check_us,
    )


def us_ops(rng: np.random.Generator) -> list[Op]:
    """Largest US-eigenvalues through order-6 lifts."""
    ops = []
    for n, bases in ((2, (0, 1, 2)), (3, (0, 1))):
        for base in bases:
            entries = rotate_symmetric(random_symmetric_entries(n, 3, base), random_unitary(n, rng))
            ops.append(us_op(f"useig n={n}", f"us{n}", DenseTensor(n, 3, entries), None))
    for name in ("a", "b"):  # bundled instances; b needs perturb-and-retry
        ops.append(us_op(f"useig {name}", "us2", ap.useig_benchmark(name), name))
    return ops


def _decomposition_view(entries: np.ndarray):
    def view(terms) -> dict:
        return {
            "entries": entries,
            "coeffs": np.array([term.coeff for term in terms]),
            "vectors": np.array([term.vector for term in terms]).reshape(len(terms), -1),
        }

    return view


def decompose_ops(rng: np.random.Generator) -> list[Op]:
    """Order 4 at n=3 and n=4, and order 6 at n=2."""
    ops = []
    for n, d, count in ((3, 2, 6), (4, 2, 1), (2, 3, 2)):
        for _ in range(count):
            entries = random_cps_entries(n, d, int(rng.integers(2**31)))
            t = DenseTensor(n, 2 * d, entries)
            ops.append(
                Op(
                    label=f"decompose n={n} order={2 * d}",
                    shape=f"dec{n}o{2 * d}",
                    run=lambda t=t: dc.cps_decompose(t),
                    view=_decomposition_view(entries),
                    check=checks.check_decomposition,
                )
            )
    return ops


def rank1_small(rng: np.random.Generator) -> list[Op]:
    s0_seeds = 9000 + rng.choice(20, size=2, replace=False)
    return (
        rank_one_ops(4, range(8000, 8006), rng)
        + radar_ops(5, [int(s) for s in s0_seeds])
        + us_ops(rng)
    )


def rank1_large(rng: np.random.Generator) -> list[Op]:
    return rank_one_ops(8, (8000, 8001), rng)


WORKLOADS = {"rank1_small": rank1_small, "rank1_large": rank1_large, "decompose": decompose_ops}

# Shapes left out of the warm-up pass: a first n=4 decomposition is no slower
# than later ones (5.9 s against 5.7 and 6.3 s), and warming it would triple
# the set-up time and make setup_s track decomposition speed.
COLD_SHAPES = {"dec4o4"}


def build(name: str, seed: int) -> tuple[list[Op], list[Op]]:
    """The round of operations of a workload, shuffled by the seed, and its
    warm-up pass: the first operation of each shape in unshuffled order, so
    the warm-up does the same work whatever the seed."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[name](rng)
    warm: dict[str, Op] = {}
    for op in ops:
        if op.shape not in COLD_SHAPES:
            warm.setdefault(op.shape, op)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], list(warm.values())

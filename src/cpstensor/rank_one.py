"""Best rank-one CPS approximation via the Hermitian matrix lift.

The largest C-eigenvalue problem max T(conj(x)^d x^d) over unit x lifts to a
rank-one-constrained Hermitian program through X = M_pi(conj(x)^{ox d} (x)
x^{ox d}) whenever pi satisfies the conjugate and rank conditions.  Two
convex relaxations are solved by ADMM:

* SDP: drop the rank constraint, keep X PSD with trace one.
* nuclear: drop PSD, penalize the nuclear norm (its prox is an eigenvalue
  soft threshold); on any feasible rank-one point the penalty is constant.

At d = 2 the loop runs on the real symmetric matrices Y = U^H X U of
U = reshaping.real_frame(n); other orders keep X itself.  Solutions are
certified rank-one through the modulus ratio of the two top eigenvalues;
certified iterates yield an eigenpair of the original tensor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadPermutation,
    NotCps,
    NotInSubspace,
    NotRankOne,
    NotUnit,
    SizeMismatch,
    UnsupportedDimension,
    ZeroMatrix,
)
from . import reshaping as rs
from . import tensor as tz
from .linalg import _spectral_prox, herm_eig
from .tensor import DenseTensor, EigenPair

SOLVER_TOL = 1e-7
MAX_ITER = 10000
OVER_RELAX = 1.7  # standard over-relaxation factor in (1, 2)
ADAPT_EVERY = 10  # iterations between penalty rebalancing steps
ADAPT_RATIO = 10.0  # residual imbalance that doubles or halves the penalty
EIG_TOL = 1e-6  # eigen residual and imaginary value a certificate allows
UNIT_TOL = 1e-8  # distance of ||x|| from 1 accepted for a unit vector
ORACLE_GRID = 2000  # brute_force_max_eig's lattice points per angle
ORACLE_POLISH_STEPS = 25  # its projected-gradient steps after the sweep


@dataclass
class SolverOptions:
    """The whole solver configuration: stopping tolerance and iteration cap."""

    tol: float = SOLVER_TOL
    max_iter: int = MAX_ITER


class Coordinates(NamedTuple):
    """The ADMM loop's data in coordinates Y = U^H X U."""

    u: np.ndarray | None  # None: U = I, the loop works on X itself
    c: np.ndarray  # U^H C U
    project: Callable[[np.ndarray], np.ndarray]  # onto M_pi(CPS), in these coordinates
    c_norm: float  # ||C||_2, the same in all coordinates


@dataclass
class MatrixModel:
    """Data of the lifted problem: C = conj(M_pi(T)) for a validated pi."""

    tensor: DenseTensor
    pi: tuple[int, ...]
    n: int
    d: int
    C: np.ndarray

    @property
    def size(self) -> int:
        return self.n**self.d

    @functools.cached_property
    def coordinates(self) -> Coordinates:
        """The solve's coordinates, built once per model: real Y = U^H X U
        with U = reshaping.real_frame(n) at d = 2, X itself at other orders."""
        c_norm = float(np.linalg.norm(self.C, 2))
        if self.d != 2:
            return Coordinates(None, self.C, rs.cps_projector(self.n, self.d, self.pi), c_norm)
        u = rs.real_frame(self.n)
        c = (u.conj().T @ self.C @ u).real
        return Coordinates(u, c, rs.real_cps_projector(self.n, self.pi), c_norm)


@dataclass
class SolveReport:
    X: np.ndarray
    objective: float
    linear_objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    rank_one_ratio: float = math.inf
    eigenpair: EigenPair | None = None
    eigen_res: float = math.inf
    certified: bool = False
    model: str = "sdp"
    rho: float = 0.0
    stop_reason: str = ""  # "tol", "max_iter" or "non-finite"
    beta_final: float = 0.0  # the ADMM penalty of the last iteration

    def to_dict(self) -> dict:
        pair = None
        if self.eigenpair is not None:
            pair = {
                "value": [self.eigenpair.value.real, self.eigenpair.value.imag],
                "vector": [[z.real, z.imag] for z in self.eigenpair.vector],
            }
        return {
            "model": self.model,
            "objective": self.objective,
            "linear_objective": self.linear_objective,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "rank_one_ratio": self.rank_one_ratio,
            "certified": self.certified,
            "eigen_residual": self.eigen_res,
            "eigenpair": pair,
            "rho": self.rho,
            "stop_reason": self.stop_reason,
            "beta_final": self.beta_final,
        }


def build_matrix_model(t: DenseTensor, pi=None) -> MatrixModel:
    """Lift a CPS tensor to its pi-matricized Hermitian data matrix."""
    if not tz.is_cps(t):
        raise NotCps("matrix lift needs a CPS tensor")
    d = t.half
    if pi is None:
        pi = rs.canonical_pi(d)
    pi = rs.validate_permutation(pi, 2 * d)
    if not rs.satisfies_conj_condition(pi, d):
        raise BadPermutation(f"{pi} violates the conjugate (Hermitian) condition")
    if not rs.satisfies_rank_condition(pi, d):
        raise BadPermutation(f"{pi} violates the rank-one equivalence condition")
    return MatrixModel(tensor=t, pi=pi, n=t.n, d=d, C=np.conj(rs.matricize_pi(t, pi)))


def project_cps_subspace(x: np.ndarray, model: MatrixModel) -> np.ndarray:
    """Orthogonal projection onto M_pi(CPS): an orbit average and gather."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (model.size, model.size):
        raise SizeMismatch(f"expected shape {(model.size, model.size)}")
    return rs.cps_projector(model.n, model.d, model.pi)(x)


def _admm(coords: Coordinates, prox, opts: SolverOptions) -> SolveReport:
    """Two-block ADMM with over-relaxation: X affine-feasible, Y = prox
    iterate, X = Y at the optimum.  The loop runs on plain arrays in the
    given coordinates, whose structure was checked when the model was
    built; its final X is mapped back by U (.) U^H once, after the loop."""
    c, project = coords.c, coords.project
    proj_identity = project(np.eye(len(c), dtype=c.dtype))
    proj_identity_trace = float(np.trace(proj_identity).real)

    def project_affine(w: np.ndarray) -> np.ndarray:
        """Exact projection onto the affine set {X in M_pi(CPS): tr X = 1}."""
        w = project(w)
        shift = (1.0 - np.trace(w).real) / proj_identity_trace
        return w + shift * proj_identity

    beta = max(coords.c_norm, 1e-12)
    x = project_affine(np.zeros_like(c))
    y = x.copy()
    u = np.zeros_like(c)
    primal = dual = math.inf
    it = 0
    stop = "max_iter"
    for it in range(1, opts.max_iter + 1):
        x = project_affine(y + (c - u) / beta)
        x_relaxed = OVER_RELAX * x + (1.0 - OVER_RELAX) * y
        y_new = prox(x_relaxed + u / beta, beta)
        dual = beta * float(np.linalg.norm(y_new - y))
        y = y_new
        u = u + beta * (x_relaxed - y)
        primal = float(np.linalg.norm(x - y))
        if max(primal, dual) <= opts.tol:
            stop = "tol"
            break
        if not (math.isfinite(primal) and math.isfinite(dual)):
            stop = "non-finite"
            break
        if it % ADAPT_EVERY == 0:
            if primal > ADAPT_RATIO * dual:
                beta *= 2.0
            elif dual > ADAPT_RATIO * primal:
                beta /= 2.0
    lin = float(np.vdot(c, x).real)
    if coords.u is not None:
        x = coords.u @ x @ coords.u.conj().T
    return SolveReport(
        X=x, objective=lin, linear_objective=lin, primal_residual=primal,
        dual_residual=dual, iterations=it, converged=stop == "tol",
        stop_reason=stop, beta_final=beta,
    )


def solve_sdp(model: MatrixModel, opts: SolverOptions | None = None) -> SolveReport:
    """Maximize <C, X> over trace-one PSD matrices in the CPS subspace."""
    opts = opts or SolverOptions()
    report = _admm(model.coordinates, lambda w, beta: _spectral_prox(w), opts)
    return certify_and_recover(report, model)


def solve_nuclear(
    model: MatrixModel, rho: float | None = None, opts: SolverOptions | None = None
) -> SolveReport:
    """Maximize <C, X> - rho ||X||_* over trace-one Hermitian CPS matrices.

    The penalty weight must be large enough to keep the model bounded:
    along a traceless feasible direction D the objective grows at rate
    <C, D> - rho ||D||_*, so any rho >= ||C||_2 (the spectral norm) is safe,
    while small weights can make the supremum infinite.  The default is
    rho = ||C||_2; on feasible rank-one points the penalty is the constant
    rho, so certification and the recovered eigenpair are unaffected.
    """
    opts = opts or SolverOptions()
    if rho is None:
        rho = model.coordinates.c_norm
    if rho <= 0:
        raise ValueError("rho must be positive")
    report = _admm(model.coordinates, lambda w, beta: _spectral_prox(w, rho / beta), opts)
    report.model, report.rho = "nuclear", rho
    return certify_and_recover(report, model)


def certify_and_recover(report: SolveReport, model: MatrixModel) -> SolveReport:
    """Attach the rank-one certificate and, when it holds, the eigenpair.

    One eigendecomposition of X serves the certificate, the extraction and,
    for the nuclear model, the penalized objective <C, X> - rho ||X||_*.
    """
    t = model.tensor
    eig = herm_eig(report.X)
    if report.model == "nuclear":
        nuc = float(np.abs(eig.eigenvalues).sum())
        report.objective = report.linear_objective - report.rho * nuc
    report.rank_one_ratio = math.inf
    try:
        report.rank_one_ratio = eig.modulus_ratio()
        vec, _ = rs._extract_from_eig(report.X, eig, model.pi, model.n, model.d, rs.RANK1_TOL)
    except (ZeroMatrix, NotRankOne, NotInSubspace):
        return report
    value = tz.conj_form_eval(t, vec)
    pair = EigenPair(value.real, vec)
    res = eigen_residual(t, pair)
    report.eigenpair = pair
    report.eigen_res = res
    report.certified = bool(res <= EIG_TOL and abs(value.imag) <= EIG_TOL)
    return report


def eigen_residual(t: DenseTensor, pair: EigenPair) -> float:
    """|| T(. conj(x)^{d-1} x^d) - lambda x || for a unit eigenvector candidate."""
    x = np.asarray(pair.vector, dtype=complex)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_TOL:
        raise NotUnit("eigenvector must have unit norm")
    return float(np.linalg.norm(tz.partial_map(t, x) - pair.value * x))


def best_rank_one_error(t: DenseTensor, pair: EigenPair) -> float:
    """|| T - lambda x^{ox d} (x) conj(x)^{ox d} || at the given pair.

    The approximant puts x in the first mode block, i.e. the rank-one CPS
    term has coefficient lambda on the vector conj(x); with that orientation
    the cross term is the conjugate form at x itself, so for an eigenpair
    the squared error collapses to ||T||^2 - lambda^2.
    """
    x = np.asarray(pair.vector, dtype=complex)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_TOL:
        raise NotUnit("vector must have unit norm")
    approx = tz.rank_one_cps(complex(pair.value).real, np.conj(x), t.half)
    return float(np.linalg.norm(t.entries - approx.entries))


def brute_force_max_eig(t: DenseTensor) -> EigenPair:
    """Grid-search oracle for max T(conj(x)^d x^d) at n = 2.

    Sweeps x = (cos th, sin th e^{i ph}) over an ORACLE_GRID x ORACLE_GRID
    lattice (global phase fixed by a real first coordinate), then applies
    projected gradient ascent steps using the partial map as the Wirtinger
    gradient direction.
    """
    if t.n != 2:
        raise UnsupportedDimension("the brute-force oracle only supports n = 2")
    d = t.half
    m = t.entries.reshape(2**d, 2**d)
    thetas = np.linspace(0.0, np.pi / 2, ORACLE_GRID)
    phis = np.linspace(0.0, 2 * np.pi, ORACLE_GRID, endpoint=False)
    best_val = -math.inf
    best_x = None
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    for ph in phis:
        xs = np.vstack([cos_t, sin_t * np.exp(1j * ph)])  # 2 x grid
        u = xs
        for _ in range(d - 1):
            u = np.einsum("ac,bc->abc", u, xs).reshape(-1, xs.shape[1])
        vals = np.real(np.sum(np.conj(u) * (m @ u), axis=0))
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = xs[:, k].copy()

    x = best_x
    val = best_val
    step = 0.5
    for _ in range(ORACLE_POLISH_STEPS):
        g = tz.partial_map(t, x)  # ascent direction for the conjugate form
        cand = x + step * g
        nrm = np.linalg.norm(cand)
        if nrm == 0:
            break
        cand /= nrm
        cval = tz.conj_form_eval(t, cand).real
        if cval > val:
            x, val = cand, cval
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return EigenPair(val, x)

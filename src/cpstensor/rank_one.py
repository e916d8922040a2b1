"""Best rank-one CPS approximation via the Hermitian matrix lift.

The largest C-eigenvalue problem max T(conj(x)^d x^d) over unit x lifts to a
rank-one-constrained Hermitian program through X = M_pi(conj(x)^{ox d} (x)
x^{ox d}) whenever pi satisfies the conjugate and rank conditions.  Two
convex relaxations are solved by ADMM:

* SDP: drop the rank constraint, keep X PSD with trace one.
* nuclear: drop PSD, penalize the nuclear norm (its prox is an eigenvalue
  soft threshold); on any feasible rank-one point the penalty is constant.

At d = 2 the loop runs on the real symmetric matrices Y = U^H X U of
U = reshaping.real_frame(n); other orders keep X itself.  A solve is
certified by one certificate, a closed primal-dual bracket: a unit x whose
conjugate form is within GAP_TOL of a dual upper bound.  The loop checks it
on a schedule and once more at a tol or max_iter stop, where the candidates
are read from X's top eigenspace, so that a degenerate maximum, whose X has
rank above one, certifies too; certified solves yield an eigenpair of the
original tensor.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import (
    BadPermutation,
    NoConvergence,
    NotCps,
    NotUnit,
    RangeError,
    SizeMismatch,
    UnsupportedDimension,
)
from . import reshaping as rs
from . import tensor as tz
from .linalg import _eigh, _spectral_prox
from .tensor import DenseTensor, EigenPair

log = logging.getLogger(__name__)

SOLVER_TOL = 1e-7
MAX_ITER = 10000
OVER_RELAX = 1.7  # standard over-relaxation factor in (1, 2)
ADAPT_EVERY = 10  # loop steps between penalty rebalancing checks
BRACKET_EVERY = 5  # loop steps between primal-dual bracket checks that may complete the dual
ADAPT_RATIO = 10.0  # residual imbalance that doubles or halves the penalty
AA_MEMORY = 5  # past steps in the Anderson extrapolation
AA_MAX_PAUSE = 64  # longest pause of extrapolation after rejected ones
AA_REGULARIZATION = 1e-10  # Tikhonov weight of the fit, relative to the Gram trace
DIVERGED_NORM = 1e6  # ||Y||_F past which a solve has diverged; trace-one PSD X has ||X||_F <= 1
EIG_TOL = 1e-6  # eigen residual and imaginary value a certificate allows, times max(1, ||T||_F)
GAP_TOL = 1e-12  # relative width (U - L) / |L| of a primal-dual bracket that stops and certifies
POLISH_STEPS = 6  # most Newton steps of a bracket candidate's polish
POLISH_TOL = 1e-14  # eigen residual, times ||T||_F, that ends the polish, and its form's rounding
POLISH_FLOOR = 1e-8  # least curvature modulus of a polish step, relative to the largest
COMPLETE_GATE = 1e-2  # bracket width under which the dual certificate is completed
COMPLETE_MAX_PAUSE = 16  # most bracket checks a failed completion pauses completions
CG_STEPS = 10  # most conjugate-gradient steps of a completion
CG_TOL = 1e-13  # residual, relative to the right-hand side, that ends them
UNIT_TOL = 1e-8  # distance of ||x|| from 1 accepted for a unit vector
ORACLE_GRID = 2000  # brute_force_max_eig's lattice points per angle
ORACLE_POLISH_STEPS = 25  # its projected-gradient steps after the sweep


@dataclass
class SolverOptions:
    """The whole solver configuration: stopping tolerance and iteration cap."""

    tol: float = SOLVER_TOL
    max_iter: int = MAX_ITER


@dataclass(frozen=True)
class MatrixModel:
    """The lifted problem, built once by build_matrix_model: C = conj(M_pi(T))
    for a validated pi, and the solve's data in coordinates Y = U^H X U."""

    tensor: DenseTensor
    pi: tuple[int, ...]
    n: int
    d: int
    C: np.ndarray
    frame: np.ndarray | None  # U; None: U = I, the loop works on X itself
    c: np.ndarray  # U^H C U
    project: Callable[[np.ndarray], np.ndarray]  # onto M_pi(CPS), in these coordinates
    p_eye: np.ndarray  # project(I)
    c_norm: float  # ||C||_2, the same in all coordinates

    @property
    def size(self) -> int:
        return self.n**self.d


@dataclass
class SolveReport:
    X: np.ndarray
    objective: float
    linear_objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    rank_one_ratio: float = math.inf  # |lambda_2| / lambda_1 of X; 0 for a lift, inf unchecked
    eigenpair: EigenPair | None = None
    eigen_res: float = math.inf
    certified: bool = False
    model: str = "sdp"
    rho: float = 0.0
    stop_reason: str = ""  # "tol", "gap", "max_iter", "non-finite" or "diverged"
    beta_final: float = 0.0  # the ADMM penalty of the last iteration
    optimality_gap: float = math.nan  # max(0, dual bound - lambda) / |lambda| when certified
    certificate: str = ""  # "bracket", or "" when uncertified
    multiplier: np.ndarray | None = field(default=None, repr=False)  # final u, loop coordinates

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
            "optimality_gap": self.optimality_gap,
            "certificate": self.certificate,
        }


def build_matrix_model(t: DenseTensor, pi=None) -> MatrixModel:
    """Lift a CPS tensor to its pi-matricized Hermitian data matrix, with
    everything the solve needs: real Y = U^H X U with
    U = reshaping.real_frame(n) at d = 2, X itself at other orders."""
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
    data = np.conj(rs.matricize_pi(t, pi))
    if d == 2:
        frame, project = rs.real_frame(t.n), rs.real_cps_projector(t.n, pi)
    else:
        frame, project = None, rs.cps_projector(t.n, d, pi)
    # U^H C U is real: a frame is only built where M_pi(CPS) is real in it
    c = data if frame is None else (frame.conj().T @ data @ frame).real
    w, _ = _eigh(c.copy(), vectors=False)  # ||C||_2 = max |w|: c is unitarily similar to C
    return MatrixModel(
        tensor=t, pi=pi, n=t.n, d=d, C=data, frame=frame, c=c, project=project,
        p_eye=project(np.eye(len(c), dtype=c.dtype)), c_norm=float(max(-w[0], w[-1])),
    )


def project_cps_subspace(x: np.ndarray, model: MatrixModel) -> np.ndarray:
    """Orthogonal projection onto M_pi(CPS): an orbit average and gather."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (model.size, model.size):
        raise SizeMismatch(f"expected shape {(model.size, model.size)}")
    return rs.cps_projector(model.n, model.d, model.pi)(x)


class _Step(NamedTuple):
    """One evaluation of the ADMM map T at a state z = (Y, u/beta)."""

    x: np.ndarray  # the affine iterate X of the pass
    image: np.ndarray  # T(z)
    residual: np.ndarray  # T(z) - z
    residual_norm: float
    primal: float  # ||X - Y||
    dual: float  # beta ||Y_new - Y||


def _real(a: np.ndarray) -> np.ndarray:
    """A contiguous array as a flat real vector: Re<a, b> is its dot product."""
    return a.reshape(-1).view(np.float64)


def _norm(a: np.ndarray) -> float:
    """||a||_F of a contiguous array."""
    v = _real(a)
    return math.sqrt(v @ v)


class _Backoff:
    """The pauses of a safeguarded step after failures: a failure skips the
    next 1, 2, 4, ... up to max_pause chances, a success resets the pause."""

    def __init__(self, max_pause: int):
        self.max_pause = max_pause
        self.pause = self.skip = 0

    def ready(self) -> bool:
        """Whether to try the step at this chance; a skipped one counts down."""
        if self.skip:
            self.skip -= 1
            return False
        return True

    def fail(self) -> None:
        self.pause = self.skip = min(2 * self.pause or 1, self.max_pause)

    def reset(self) -> None:
        self.pause = 0


class _Anderson:
    """Type-II Anderson acceleration history: the last AA_MEMORY differences
    of T(z) and of g = T(z) - z, in preallocated ring buffers, with the Gram
    matrix of the g differences updated one row per step.  Complex states
    are read as real vectors, so every inner product is Re<a, b>."""

    def __init__(self, like: np.ndarray):
        size = _real(like).size
        self.d_image = np.empty((AA_MEMORY, size))
        self.d_residual = np.empty((AA_MEMORY, size))
        self.gram = np.empty((AA_MEMORY, AA_MEMORY))
        self.dtype, self.shape = like.dtype, like.shape
        self.count = self.slot = 0

    def clear(self) -> None:
        self.count = self.slot = 0

    def push(self, new: _Step, old: _Step) -> None:
        k = self.slot
        np.subtract(_real(new.image), _real(old.image), out=self.d_image[k])
        np.subtract(_real(new.residual), _real(old.residual), out=self.d_residual[k])
        self.count = min(self.count + 1, AA_MEMORY)
        self.slot = (k + 1) % AA_MEMORY
        row = self.d_residual[: self.count] @ self.d_residual[k]
        self.gram[k, : self.count] = self.gram[: self.count, k] = row

    def extrapolate(self, cur: _Step) -> np.ndarray:
        """T(z) - dT gamma, with gamma the regularized least-squares fit
        min ||g - dg gamma|| solved on the Gram matrix."""
        m = self.count
        gram = self.gram[:m, :m]
        reg = AA_REGULARIZATION * np.trace(gram) + np.finfo(float).tiny
        system = gram + reg * np.eye(m)
        _, gamma, info = lapack.dposv(system, self.d_residual[:m] @ _real(cur.residual), overwrite_a=1)
        if info != 0:  # pragma: no cover - the regularized Gram matrix is positive definite
            raise NoConvergence(f"?posv returned info={info}")
        z = _real(cur.image) - gamma @ self.d_image[:m]
        return z.view(self.dtype).reshape(self.shape)


class _Bracket(NamedTuple):
    """A closed primal-dual bracket: a unit x with L = T(conj(x)^d x^d) and
    an upper bound U on the largest C-eigenvalue, U - L <= GAP_TOL |L|."""

    pair: EigenPair  # x and L
    residual: float  # eigen residual at x
    gap: float  # (U - L) / |L|


def _polish(form: tz._ConjForm, start: tz._FormPoint) -> tuple[np.ndarray, np.ndarray, complex]:
    """A unit x moved towards a C-eigenpair g(x) = mu x, g the partial map, by
    a safeguarded Newton ascent from the kernel's point start; returns x,
    phase fixed, with its g and conjugate form.

    A Newton step linearizes the eigen residual g - mu x, mu = x^H g, with
    the Wirtinger derivatives A = dg/dx and B = dg/dconj(x) of g.  The phase
    of x is free, so the step h is the least-norm one, x^H h = 0: with Q an
    orthonormal basis of the complement of x (_complement) and h = Q c, it
    solves H c = -Q^H g for the real symmetric H of c -> Q^H (A - mu) Q c +
    Q^H B conj(Q) conj(c), a multiple of the conjugate form's Hessian on
    the sphere, in 2n - 2 real unknowns; h does not depend on which basis Q
    is.  H's eigenvalues are replaced by minus their moduli, floored at
    POLISH_FLOOR times the largest: the step is Newton's near a
    nondegenerate maximum and an ascent direction elsewhere.  A step is
    kept only if the conjugate form rises, up to its rounding,
    POLISH_TOL |mu|: the last steps to an eigenpair change the form by
    less.  The polish ends on a rejected step, on an eigen residual of
    POLISH_TOL ||T||_F or after POLISH_STEPS steps; at n = 1 every unit x
    is an eigenvector."""
    n, half = form.n, form.n - 1
    tol = POLISH_TOL * form.norm
    point, mu = start, start.value.real
    hess = np.empty((2 * half, 2 * half))
    for _ in range(POLISH_STEPS):
        x, g = point.x, point.g
        if n == 1 or not _norm(g - mu * x) > tol:
            break
        a, b = form.derivatives(point)
        q = _complement(x)
        qh = q.conj().T
        m = qh @ a @ q
        m.flat[::n] -= mu
        k = qh @ b @ q.conj()
        rhs = qh @ g
        np.add(m.real, k.real, out=hess[:half, :half])
        np.subtract(k.imag, m.imag, out=hess[:half, half:])
        np.add(m.imag, k.imag, out=hess[half:, :half])
        np.subtract(m.real, k.real, out=hess[half:, half:])
        w, v = _eigh(hess)
        w = np.maximum(np.abs(w), POLISH_FLOOR * np.abs(w).max())
        step = v @ ((v.T @ np.concatenate([rhs.real, rhs.imag])) / w)
        y = x + q @ (step[:half] + 1j * step[half:])
        y /= _norm(y)
        trial = form.at(y)
        if not trial.value.real >= mu - POLISH_TOL * abs(mu):
            break
        point, mu = trial, trial.value.real
    phase = rs._phase_factor(point.x)
    return point.x * phase, point.g * phase, point.value


def _complement(x: np.ndarray) -> np.ndarray:
    """An orthonormal basis Q (n x (n - 1)) of the complement of a unit x:
    the last n - 1 columns of the Householder reflector
    I - v v^H / (1 + |x_1|), v = x + e^{i arg x_1} e_1 (e_1 when x_1 = 0),
    which maps x to a multiple of e_1."""
    top = abs(x[0])
    v = x.copy()
    v[0] += x[0] / top if top > 0.0 else 1.0
    q = np.outer(v, np.conj(v[1:])) / -(1.0 + top)
    q.flat[len(x) - 1 :: len(x)] += 1.0  # the identity below q's first row
    return q


class _BracketCheck:
    """The primal-dual bracket check of one solve (_admm), with the state it
    carries from check to check: the last polished candidate and the pause
    of the dual completion.

    A check reads unit candidates x off eigenvectors of X (the top left
    singular vector of the eigenvector's mode-1 unfolding) and polishes
    each (_polish); the first is polished from the read x or from the last
    check's polished x, whichever has the larger conjugate form.  Forms,
    partial maps and their derivatives come from one tz._ConjForm, built
    with the check.  L is the
    conjugate form at a read or polished candidate that passes the eigen
    tests, the largest first (_close), a lower bound on the maximum.  U is
    the smaller of dual_bound(model, u) and, when that misses GAP_TOL by
    less than COMPLETE_GATE, the completed bound (_completed_bound).  A
    completion that does not close the bracket pauses completions for 1, 2,
    4, ... up to COMPLETE_MAX_PAUSE checks.  The loop checks every
    BRACKET_EVERY passes while the next check may complete the dual, else
    every ADAPT_EVERY passes (due), so that solves far from closing pay for
    no more checks than that, and once more at a tol or max_iter stop
    (final)."""

    FINAL_PAIRS = 4  # most top eigenpairs of X the final check reads
    FINAL_RATIO = 0.5  # least eigenvalue, relative to the top one, of the eigenspace read
    FINAL_MIXES = 8  # random combinations of that eigenspace read as candidates

    def __init__(self, model: MatrixModel):
        self.model = model
        self.form = tz._ConjForm(model.tensor)
        self.polished: EigenPair | None = None
        self.completions = _Backoff(COMPLETE_MAX_PAUSE)
        self.eager = True  # whether the next check may complete the dual

    def due(self, passes: int) -> bool:
        """Whether the loop checks after this many passes: every
        BRACKET_EVERY passes up to the first check and while the last one
        was within COMPLETE_GATE with completions not paused, else every
        ADAPT_EVERY passes."""
        return passes % ADAPT_EVERY == 0 or (passes % BRACKET_EVERY == 0 and self.eager)

    def __call__(self, x: np.ndarray, u: np.ndarray) -> _Bracket | None:
        """The bracket of an iterate X and multiplier u, in the loop's
        coordinates, read off X's top eigenvector, when it closes; else None."""
        _, v = _eigh(x, "I", il=len(x), iu=len(x))
        return self._close(v, u, final=False)

    def final(self, x: np.ndarray, u: np.ndarray) -> tuple[_Bracket | None, float]:
        """The check of the loop's last iterate X, and |lambda_2| / lambda_1
        of X's two largest eigenvalues (0 at N = 1).

        With two maximizers or more, X has rank above one and its top
        eigenvector mixes them; each maximizer's lift factor lies in the
        eigenspace of the near-top eigenvalues.  So the candidates are read
        off the top eigenvector and off FINAL_MIXES complex combinations,
        drawn with a fixed seed, of the eigenvectors of the FINAL_PAIRS
        largest eigenvalues that reach FINAL_RATIO of the top one.  The
        eigenspace is chosen by eigenvalue, as the nuclear X is not PSD.  A
        completion is tried whatever the pause."""
        size = len(x)
        w, v = _eigh(x, "I", il=max(1, size - self.FINAL_PAIRS + 1), iu=size)
        ratio = abs(w[-2]) / w[-1] if size > 1 else 0.0
        v = v[:, w >= self.FINAL_RATIO * w[-1]]
        if v.shape[1] > 1:
            mix = np.random.default_rng(0).standard_normal((2, v.shape[1], self.FINAL_MIXES))
            v = np.column_stack([v[:, -1], v @ (mix[0] + 1j * mix[1])])
        return self._close(v, u, final=True), ratio

    def _close(self, reads: np.ndarray, u: np.ndarray, final: bool) -> _Bracket | None:
        """The bracket of the candidates read off the columns of reads, when
        it closes; the first column's is polished from its read x or the
        last polished x.  A final check tries every candidate that passes
        the eigen tests, in order of L, as the completed bound depends on
        the candidate; a check in the loop tries the first alone."""
        model, form = self.model, self.form
        candidates = []
        for k, column in enumerate(reads.T):
            read = form.at(rs._oriented_vector(column, model.pi, model.n, model.d, model.frame))
            start = read
            if k == 0 and self.polished is not None and self.polished.value > read.value.real:
                start = form.at(self.polished.vector)
            vec, g, value = _polish(form, start)
            if k == 0:
                self.polished = EigenPair(value.real, vec)
            candidates += [(vec, g, value), (read.x, read.g, read.value)]
        # the larger form first, the polished x on a tie; those that pass the
        # tests, or, before the final check, the first of them
        passing = []
        for vec, g, value in sorted(candidates, key=lambda c: -c[2].real):
            pair = EigenPair(value.real, vec)
            res = _norm(g - pair.value * vec)
            if _passes_eigen_tests(form.norm, value, res):
                passing.append((pair, res))
                if not final:
                    break
        if not passing:
            self.eager = False
            return None
        dual = _dual_matrix(model, u)
        upper = _top_eigenvalue(dual)
        for pair, res in passing:
            gap = _relative_gap(upper, pair.value)
            if GAP_TOL < gap < COMPLETE_GATE and (final or self.completions.ready()):
                gap = min(gap, _relative_gap(_completed_bound(model, dual, pair.vector), pair.value))
                if gap > GAP_TOL:
                    self.completions.fail()
            if gap <= GAP_TOL:
                break
        self.eager = gap < COMPLETE_GATE and not self.completions.skip
        return _Bracket(pair, res, gap) if gap <= GAP_TOL else None


def _admm(
    model: MatrixModel, prox, opts: SolverOptions, rho: float | None = None
) -> SolveReport:
    """Two-block ADMM with over-relaxation: X affine-feasible, Y = prox
    iterate, X = Y at the optimum, accelerated by safeguarded Anderson
    acceleration.

    One map evaluation takes z = (Y, u/beta) to T(z) with one prox, so one
    call of the eigen kernel (and one Cholesky factorization for the nuclear
    model).  From the last AA_MEMORY steps an extrapolated point is fitted; it
    is kept only when its residual ||T(z) - z|| is below the current one,
    else the plain step T(z) is taken and extrapolation pauses for 1, 2, 4,
    ... up to AA_MAX_PAUSE steps.  A change of the penalty beta changes T
    and clears the history.  `iterations` counts map evaluations, rejected
    extrapolations included, and max_iter caps them.

    Every BRACKET_EVERY or ADAPT_EVERY passes (_BracketCheck.due), before
    any penalty check (every ADAPT_EVERY passes), the loop checks the
    primal-dual bracket of the current X and u (_BracketCheck), which
    leaves the iterates as they are, and stops with "gap" once it closes.
    A loop stopped on tol or max_iter checks its last iterate once more
    (_BracketCheck.final).  A closed bracket certifies the solve: the
    report's X is then the rank-one lift of the bracket's x, which is
    exactly feasible and has <C, X> = L, and it carries the eigenpair, its
    residual and the gap (U - L) / |L|.  Otherwise X is the loop's last
    iterate.  With a nuclear weight rho the objective is
    <C, X> - rho ||X||_*, which is <C, X> - rho on a lift.  The loop runs
    on plain arrays in the model's coordinates, whose structure was checked
    when the model was built; its final X is mapped back by U (.) U^H once,
    after the loop, and the final multiplier u stays in the loop's
    coordinates."""
    c, project, p_eye = model.c, model.project, model.p_eye
    p_eye_trace = float(np.trace(p_eye).real)

    def project_affine(w: np.ndarray) -> np.ndarray:
        """Exact projection onto the affine set {X in M_pi(CPS): tr X = 1}."""
        w = project(w)
        shift = (1.0 - np.trace(w).real) / p_eye_trace
        return w + shift * p_eye

    beta = max(model.c_norm, 1e-12)
    evaluations = 0

    def step(z: np.ndarray) -> _Step:
        nonlocal evaluations
        evaluations += 1
        y, w = z
        x = project_affine(y + c / beta - w)
        x_relaxed = OVER_RELAX * x + (1.0 - OVER_RELAX) * y
        image = np.empty_like(z)
        image[0] = prox(x_relaxed + w, beta)
        image[1] = w + x_relaxed - image[0]
        g = image - z
        return _Step(x, image, g, _norm(g), _norm(x - image[0]), beta * _norm(g[0]))

    cur = step(np.stack([project_affine(np.zeros_like(c)), np.zeros_like(c)]))
    history = _Anderson(cur.image)
    check = _BracketCheck(model)
    extrapolations = _Backoff(AA_MAX_PAUSE)
    bracket = None
    passes = 0
    while True:
        if max(cur.primal, cur.dual) <= opts.tol:
            stop = "tol"
            break
        if not (math.isfinite(cur.primal) and math.isfinite(cur.dual)):
            stop = "non-finite"
            break
        if _norm(cur.image[0]) > DIVERGED_NORM:
            stop = "diverged"
            break
        if evaluations >= opts.max_iter:
            stop = "max_iter"
            break
        passes += 1
        factor = 1.0
        if check.due(passes):
            bracket = check(cur.x, beta * cur.image[1])
            if bracket is not None:
                stop = "gap"
                break
        if passes % ADAPT_EVERY == 0:
            if cur.primal > ADAPT_RATIO * cur.dual:
                factor = 2.0
            elif cur.dual > ADAPT_RATIO * cur.primal:
                factor = 0.5
        nxt = None
        if factor != 1.0:
            beta *= factor
            cur.image[1] /= factor  # the multiplier u = beta (u / beta) carries over
            history.clear()
        elif extrapolations.ready() and history.count:
            trial = step(history.extrapolate(cur))
            if trial.residual_norm < cur.residual_norm:
                nxt = trial
                extrapolations.reset()
            else:
                extrapolations.fail()
        if nxt is None:
            if evaluations >= opts.max_iter:
                stop = "max_iter"
                break
            nxt = step(cur.image)
        if factor == 1.0:
            history.push(nxt, cur)
        cur = nxt
    ratio = math.inf
    if stop in ("tol", "max_iter"):
        bracket, ratio = check.final(cur.x, beta * cur.image[1])
    found = {} if rho is None else dict(model="nuclear", rho=rho)
    if bracket is not None:
        x = rs._rank_one_lift(bracket.pair.vector, model.pi, model.d)
        lin = objective = float(np.vdot(model.C, x).real)
        if rho is not None:
            objective -= rho
        ratio = 0.0
        found.update(
            eigenpair=bracket.pair, eigen_res=bracket.residual, optimality_gap=bracket.gap,
            certified=True, certificate="bracket",
        )
    else:
        x = cur.x
        lin = objective = float(np.vdot(c, x).real)
        if rho is not None:
            objective -= rho * float(np.abs(_eigh(x.copy(), vectors=False)[0]).sum())
        if model.frame is not None:
            x = model.frame @ x @ model.frame.conj().T
    return SolveReport(
        X=x, objective=objective, linear_objective=lin, primal_residual=cur.primal,
        dual_residual=cur.dual, iterations=evaluations, converged=stop in ("tol", "gap"),
        rank_one_ratio=ratio, stop_reason=stop, beta_final=beta, multiplier=beta * cur.image[1],
        **found,
    )


def solve_sdp(model: MatrixModel, opts: SolverOptions | None = None) -> SolveReport:
    """Maximize <C, X> over trace-one PSD matrices in the CPS subspace."""
    return _admm(model, lambda w, beta: _spectral_prox(w), opts or SolverOptions())


def solve_nuclear(
    model: MatrixModel, rho: float | None = None, opts: SolverOptions | None = None
) -> SolveReport:
    """Maximize <C, X> - rho ||X||_* over trace-one Hermitian CPS matrices.

    The penalty weight must be large enough to keep the model bounded:
    along a traceless feasible direction D the objective grows at rate
    <C, D> - rho ||D||_*, so any rho >= ||C||_2 (the spectral norm) is safe,
    while small weights can make the supremum infinite.  The default is
    rho = ||C||_2; on feasible rank-one points the penalty is the constant
    rho, so certification and the recovered eigenpair are unaffected.  A
    smaller rho is solved as given, with a warning on the package logger.
    """
    c_norm = model.c_norm
    if rho is None:
        rho = c_norm
    if not 0.0 < rho < math.inf:
        raise RangeError(f"rho must be a finite number > 0, got {rho}")
    if rho < c_norm:
        log.warning(
            "rho %.6g is below ||C||_2 = %.6g; the nuclear model may be unbounded", rho, c_norm
        )
    return _admm(
        model, lambda w, beta: _spectral_prox(w, rho / beta), opts or SolverOptions(), rho
    )


def _relative_gap(upper: float, value: float) -> float:
    """(U - lambda) / |lambda| for an upper bound U on the largest C-eigenvalue
    and a lower bound lambda, floored at 0: the relative width of the
    bracket [lambda, max(lambda, U)].  A completed bound equals lambda in
    exact arithmetic once it closes the bracket, so U and lambda, each
    computed to a few ulps, can read in either order."""
    return max(upper - value, 0.0) / max(abs(value), 1e-300)


def _passes_eigen_tests(t_norm: float, value: complex, res: float) -> bool:
    """The eigen residual and |Im value| of a candidate pair are both within
    EIG_TOL max(1, ||T||_F)."""
    tol = EIG_TOL * max(1.0, t_norm)
    return bool(res <= tol and abs(value.imag) <= tol)


def dual_bound(model: MatrixModel, u: np.ndarray) -> float:
    """An upper bound on <C, X> over the SDP's feasible set, hence on the
    largest C-eigenvalue, from an ADMM multiplier u: the top eigenvalue of
    C - W for the W of _dual_matrix."""
    return _top_eigenvalue(_dual_matrix(model, u))


def _dual_matrix(model: MatrixModel, u: np.ndarray) -> np.ndarray:
    """C - W for an ADMM multiplier u, in the loop's coordinates.

    W = -(u - P(u)) - t (I - P(I)), with P the projection onto M_pi(CPS) and
    t = <C - u, P(I)> / ||P(I)||^2, is orthogonal to M_pi(CPS).  So every
    feasible X (in the subspace, PSD, trace one) has
    <C, X> = <C - W, X> <= lambda_max(C - W).  At the ADMM fixed point
    C - u = W + t I, and the bound is tight.  Everything is unitarily
    invariant, so it is computed in the loop's coordinates.
    """
    c, p_eye = model.c, model.p_eye
    t = float(np.vdot(p_eye, c - u).real) / float(np.vdot(p_eye, p_eye).real)
    return c - (model.project(u) - u - t * (np.eye(len(c), dtype=c.dtype) - p_eye))


def _top_eigenvalue(h: np.ndarray) -> float:
    top, _ = _eigh(h, "I", vectors=False, il=len(h), iu=len(h))
    return float(top[-1])


def _completed_bound(model: MatrixModel, dual: np.ndarray, vec: np.ndarray) -> float:
    """lambda_max(C - W - D) for the dual matrix C - W of _dual_matrix and a
    unit candidate x: an upper bound on the largest C-eigenvalue for every
    Hermitian D orthogonal to M_pi(CPS), however D is computed.

    With v the lift factor of x in the loop's coordinates (X = v v^H is the
    rank-one lift, so L = v^H (C - W) v = <C, X>), D is the least-norm such
    matrix with D v = r = (C - W - L I) v: then v is an eigenvector of
    C - W - D with eigenvalue L, and when the multiplier is near the optimum
    the bound is L itself.  D = (I - P) S(a) with S(a) = herm(a v^H) and a
    the solution of S^T (I - P) S a = r, found by conjugate gradients in
    real inner products, one projection P per step.  That operator is
    singular along the lift's tangent directions, v among them; r is
    orthogonal to them when x is a C-eigenvector with eigenvalue L, and CG
    stops where a search direction meets them."""
    v = rs._lift_factor(vec, model.pi, model.d)
    if model.frame is not None:  # U^H a a^H U is real: so is U^H a, up to its phase
        v = model.frame.conj().T @ v
        top = v[np.argmax(np.abs(v))]
        v = (v * (np.conj(top) / abs(top))).real
    dual_v = dual @ v
    r = dual_v - np.vdot(v, dual_v).real * v

    def image(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(I - P) S(a) and its product with v."""
        s = np.outer(a, v.conj())
        s = 0.5 * (s + s.conj().T)
        s -= model.project(s)
        return s, s @ v

    delta, p = np.zeros_like(dual), r.copy()
    rr = r_norm = float(np.vdot(r, r).real)
    for _ in range(CG_STEPS):
        if rr <= CG_TOL**2 * r_norm:
            break
        s, q = image(p)
        curvature = float(np.vdot(p, q).real)
        if curvature <= CG_TOL * float(np.vdot(p, p).real):  # breakdown: A is singular along p
            break
        alpha = rr / curvature
        delta += alpha * s
        r = r - alpha * q
        rr, rr_old = float(np.vdot(r, r).real), rr
        p = r + (rr / rr_old) * p
    return _top_eigenvalue(dual - delta)


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

"""Mode permutations, vectorization and square matricizations.

The permutation conditions implemented here decide when the pi-matricization
of a CPS tensor is Hermitian (conjugate condition) and when rank-one
matricizations certify rank-one tensors (rank condition).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import (
    BadPermutation,
    NotInSubspace,
    NotRankOne,
    SizeMismatch,
)
from .linalg import _eigh, _modulus_ratio, require_hermitian
from .tensor import DenseTensor

RANK1_TOL = 1e-6


def validate_permutation(pi, order: int) -> tuple[int, ...]:
    """Check that pi is a bijection on 1..order and return it as a tuple."""
    pi = tuple(int(p) for p in pi)
    if len(pi) != order or sorted(pi) != list(range(1, order + 1)):
        raise BadPermutation(f"{pi} is not a permutation of 1..{order}")
    return pi


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse a comma-separated 1-based permutation, e.g. "1,3,4,2"."""
    try:
        pi = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise BadPermutation(f"cannot parse permutation {text!r}") from exc
    return validate_permutation(pi, len(pi))


def pi_transpose(t: DenseTensor, pi) -> DenseTensor:
    """Tensor transpose: mode k of the result originates from mode pi_k of t."""
    pi = validate_permutation(pi, t.order)
    axes = [p - 1 for p in pi]
    return DenseTensor(t.n, t.order, np.transpose(t.entries, axes))


def vectorize(t: DenseTensor) -> np.ndarray:
    """v(T) in base-n index order (row-major layout makes this a flat view)."""
    return t.entries.reshape(-1).copy()


def devectorize(v: np.ndarray, n: int, order: int) -> DenseTensor:
    v = np.asarray(v, dtype=complex)
    if v.size != n**order:
        raise SizeMismatch(f"expected {n ** order} entries, got {v.size}")
    return DenseTensor(n, order, v.reshape((n,) * order))


def matricize(t: DenseTensor) -> np.ndarray:
    """Standard square matricization M(T) of an even-order tensor."""
    d = t.half  # raises OddOrder
    big = t.n**d
    return t.entries.reshape(big, big).copy()


def dematricize(m: np.ndarray, n: int, d: int) -> DenseTensor:
    m = np.asarray(m, dtype=complex)
    if m.shape != (n**d, n**d):
        raise SizeMismatch(f"expected shape {(n ** d, n ** d)}, got {m.shape}")
    return DenseTensor(n, 2 * d, m.reshape((n,) * (2 * d)))


def matricize_pi(t: DenseTensor, pi) -> np.ndarray:
    """pi-matricization M_pi(T) = M(T^pi)."""
    return matricize(pi_transpose(t, pi))


def dematricize_pi(m: np.ndarray, pi, n: int, d: int) -> DenseTensor:
    """Exact inverse of matricize_pi."""
    pi = validate_permutation(pi, 2 * d)
    tp = dematricize(m, n, d)
    return pi_transpose(tp, np.argsort(pi) + 1)


def satisfies_conj_condition(pi, d: int) -> bool:
    """True iff for every k exactly one of {pi_k, pi_{d+k}} lies in 1..d."""
    pi = validate_permutation(pi, 2 * d)
    first = set(range(1, d + 1))
    return all(len({pi[k], pi[d + k]} & first) == 1 for k in range(d))


def satisfies_rank_condition(pi, d: int) -> bool:
    """floor(d/2) <= |{pi_1..pi_d} & {1..d}| <= ceil(d/2)."""
    pi = validate_permutation(pi, 2 * d)
    hits = len(set(pi[:d]) & set(range(1, d + 1)))
    return d // 2 <= hits <= (d + 1) // 2


def canonical_pi(d: int) -> tuple[int, ...]:
    """The straightforward permutation satisfying both conditions.

    (1,3,4,2) for d=2, (1,2,4,5,6,3) for d=3, (1,2,5,6,7,8,3,4) for d=4.
    """
    if d < 1:
        raise BadPermutation("d must be positive")
    ceil, floor = (d + 1) // 2, d // 2
    pi = (
        list(range(1, ceil + 1))
        + list(range(d + 1, d + floor + 1))
        + list(range(d + floor + 1, 2 * d + 1))
        + list(range(ceil + 1, d + 1))
    )
    return tuple(pi)


def _frame_projector(n: int, d: int, pi: tuple[int, ...], rows, entries, dtype) -> Callable:
    """Q Q^T on the real coordinates of Y = U^H X U (two for a complex entry),
    Q the orthonormal orbit basis of M_pi(CPS) mapped through a frame U whose
    column k holds entries[j, k] in row rows[j, k], j < len(rows) <= 2.

    Matrix positions share an orbit when the tensor entries they hold differ
    by permutations within each mode half.  An orbit o with half-swap partner
    s gives (1_o + 1_s) and i (1_o - 1_s), normalized, in columns 2 lead and
    2 lead + 1 of Q, lead = min(o, s); 1_o alone if s = o.  Entry (k, l) of Y
    reads X at (rows[j, k], rows[j ^ g, l]) with weight conj(U[., k]) U[., l];
    group g lies in one orbit pair (at U = I one position, for the d = 2 real
    frame a position and its J-image), and its weights are summed before the
    orbit scale.  A real coordinate meets one column per group, an entry's
    (Re, Im) at U = I the pair (2 lead, 2 lead + 1), read as one item: a call
    is one weighted bincount and one gather."""
    big, dtype, real = n**d, np.dtype(dtype), np.dtype(np.float64)
    parts = 2 if dtype.kind == "c" else 1
    # row m: the digit that mode m+1 of T takes at each flat matrix position
    digits = np.indices((n,) * (2 * d), dtype=np.min_scalar_type(n))
    modes = digits.reshape(2 * d, -1)[np.argsort(pi)]
    place = n ** np.arange(d - 1, -1, -1)
    key = (place @ np.sort(modes[:d], axis=0)) * big + place @ np.sort(modes[d:], axis=0)
    labels, orbit = np.unique(key, return_inverse=True)
    swap = np.searchsorted(labels, (labels % big) * big + labels // big)
    columns, values = [], []
    for g in range(len(rows)):
        at = [orbit[(rows[j][:, None] * big + rows[j ^ g]).reshape(-1)] for j in range(len(rows))]
        w = [np.outer(np.conj(entries[j]), entries[j ^ g]).reshape(-1) for j in range(len(rows))]
        lead, paired = np.minimum(at[0], swap[at[0]]), at[0] != swap[at[0]]
        scale = 1.0 / np.sqrt(np.where(paired, 2.0, 1.0) * np.bincount(orbit)[at[0]])
        sym, anti = sum(w), sum(np.where(a == lead, v, -v) for a, v in zip(at, w))
        # Re<., .> of (Re, Im) with the pair's two basis matrices, one of them 0
        sym, anti = np.array([sym.real, sym.imag]), np.where(paired, [-anti.imag, anti.real], 0.0)
        columns.append((2 * lead + (sym == 0))[:parts].T.ravel())
        values.append((scale * np.where(sym == 0, anti, sym))[:parts].T.ravel())
    columns, values = np.array(columns), np.array(values)
    flat_columns, gather, bins = columns.ravel(), columns[:, ::parts] // parts, 2 * len(labels)

    def project(y: np.ndarray) -> np.ndarray:
        flat = np.asarray(y, dtype).ravel().view(real)
        q_y = np.bincount(flat_columns, weights=(values * flat).ravel(), minlength=bins)
        out = q_y.view(dtype).take(gather)
        out_real = out.view(real)
        out_real *= values
        return (out[0] if len(out) == 1 else out[0] + out[1]).reshape(y.shape)

    return project


@functools.lru_cache(maxsize=32)
def cps_projector(n: int, d: int, pi: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """Orthogonal projection onto M_pi(CPS) in X's own coordinates (U = I),
    built once per (n, d, pi): orbit means paired with their half-swap
    partners, the PS symmetrization and the Hermitian part.  It is right for
    every pi, and exactly Hermitian when pi meets the conjugate condition.
    The identity pi gives tensor coordinates: the input may also be the
    order-2d tensor, which lays out its entries in the same order."""
    return _frame_projector(n, d, pi, np.arange(n**d)[None], np.ones((1, n**d)), complex)


def _real_frame_entries(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, entries) of real_frame(n), two per column: e_ab before e_ba,
    and e_aa as e_aa / 2 + e_aa / 2."""
    i, j = np.triu_indices(n, 1)
    diag, ab, ba = np.arange(n) * (n + 1), i * n + j, j * n + i
    rows = np.array([np.concatenate([diag, ab, ab]), np.concatenate([diag, ba, ba])])
    s = math.sqrt(0.5)
    return rows, np.repeat([[0.5, s, 1j * s], [0.5, s, -1j * s]], [n, len(i), len(i)], axis=1)


@functools.lru_cache(maxsize=32)
def real_frame(n: int) -> np.ndarray:
    """The unitary U with columns e_i (x) e_i, (e_ij + e_ji)/sqrt2 and
    i (e_ij - e_ji)/sqrt2 for i < j (e_ij = e_i (x) e_j), assembled from the
    (rows, entries) that real_cps_projector reads.  Each column is fixed by J,
    the swap of the two factors of C^n (x) C^n followed by conjugation.  At
    d = 2 every X in M_pi(CPS) commutes with J, for every pi that meets both
    conditions, since X[(b,a),(d,c)] = conj(X[(a,b),(c,d)]) for a Hermitian
    tensor; so U^H X U is real symmetric."""
    u = np.zeros((n * n, n * n), dtype=complex)
    rows, entries = _real_frame_entries(n)
    np.add.at(u, (rows, np.arange(n * n)), entries)
    u.flags.writeable = False
    return u


@functools.lru_cache(maxsize=32)
def real_cps_projector(n: int, pi: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The d = 2 projection onto M_pi(CPS) in the real coordinates Y = U^H X U
    of U = real_frame(n), U^H P(U Y U^H) U for P = cps_projector and pi
    meeting both conditions; its output is exactly symmetric."""
    return _frame_projector(n, 2, pi, *_real_frame_entries(n), np.float64)


def cps_part(w: np.ndarray, d: int) -> np.ndarray:
    """Entries of the projection of an order-2d tensor onto the CPS subspace:
    the PS symmetrization followed by the Hermitian part."""
    return cps_projector(w.shape[0], d, tuple(range(1, 2 * d + 1)))(w)


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    """u rotated so that its lowest-index near-max-modulus entry is real positive."""
    return u * _phase_factor(u)


def _phase_factor(u: np.ndarray) -> complex:
    """The unit factor by which _canonical_phase rotates u."""
    mods = np.abs(u)
    top = int(np.argmax(mods >= mods.max() - 1e-12))  # lowest near-max index
    return np.conj(u[top] / abs(u[top]))


def extract_rank_one_vector(
    x: np.ndarray, pi, n: int, d: int, tol: float = RANK1_TOL
) -> tuple[np.ndarray, float]:
    """Recover (unit x, real lam) with X ~ lam * M_pi(conj(x)^{ox d} (x) x^{ox d}).

    For a pi that satisfies the conjugate condition such a matrix equals
    lam * u u^H where u vectorizes the tensor product of the first-block
    factors (each factor is conj(x) or x according to whether its source
    mode sits in the first half); any other pi raises BadPermutation.  The top
    eigenvector therefore devectorizes to a rank-one order-d tensor, whose
    leading singular vector of the mode-1 unfolding recovers x up to phase;
    this stays accurate on solver iterates that are only approximately
    rank-one, unlike reading entry patterns directly.  The global phase is
    fixed by making the largest-modulus entry of x real positive (lowest
    index wins ties).  tol bounds the eigenvalue modulus ratio, the distance
    to the subspace and the reconstruction residual, each relative.

    A trace screen runs before the eigendecomposition: with N = len(X), X
    is not rank one when (tr X)^2 < ||X||_F^2 (1 - 2 N tol).  It never
    rejects a matrix the ratio test accepts: if |w_i| <= tol |w_1| for every
    i >= 2, then (tr X)^2 - ||X||_F^2 (1 - 2 N tol) >= w_1^2 (2 tol +
    (N-1)(N-2) tol^2 + 2 N (N-1) tol^3) > 0, a margin that dwarfs round-off
    for tol >> N eps.  So the outputs and exceptions are those of the ratio
    test alone, and a matrix whose trace is small against its norm, as an
    indefinite one's is, leaves after O(N^2) work instead of an O(N^3)
    eigendecomposition.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (n**d, n**d):
        raise SizeMismatch(f"expected shape {(n ** d, n ** d)}, got {x.shape}")
    pi = validate_permutation(pi, 2 * d)
    if not satisfies_conj_condition(pi, d):
        raise BadPermutation(f"{pi} violates the conjugate (Hermitian) condition")
    h = require_hermitian(x)
    norm = float(np.linalg.norm(h))
    if 0.0 < norm < math.inf:  # a zero or non-finite X goes on to the ratio test
        trace = float(np.sum(h.diagonal().real / norm))  # tr X / ||X||_F, free of overflow
        if trace**2 < 1.0 - 2 * len(h) * tol:
            raise NotRankOne(f"trace ratio {abs(trace):.3e} rules out rank one")
    w, v = _eigh(h)
    ratio = _modulus_ratio(w)
    if ratio > tol:
        raise NotRankOne(f"second/first eigenvalue ratio {ratio:.3e} too large")
    scale = max(np.linalg.norm(x), 1e-300)
    if np.linalg.norm(x - cps_projector(n, d, pi)(x)) / scale > max(tol, 1e-8):
        raise NotInSubspace("matrix does not lie in the matricized CPS subspace")

    top = len(w) - 1 - int(np.argmax(np.abs(w[::-1])))  # the larger of a modulus tie
    vec = _oriented_vector(v[:, top], pi, n, d)
    pattern = _rank_one_lift(vec, pi, d)
    lam = float(np.vdot(pattern, x).real)  # least-squares coefficient, ||pattern|| = 1
    res = np.linalg.norm(x - lam * pattern) / scale
    if res > tol:
        raise NotRankOne(f"rank-one reconstruction residual {res:.3e} too large")
    return vec, lam


def _oriented_vector(
    u: np.ndarray, pi: tuple[int, ...], n: int, d: int, frame: np.ndarray | None = None
) -> np.ndarray:
    """The unit x, phase fixed, read off u, an eigenvector of a matrix of
    M_pi(CPS) or a combination of such (U u with a frame U): the top left
    singular vector of the mode-1 unfolding of u, conjugated when mode 1
    carries conj(x)."""
    if frame is not None:
        u = frame @ u
    factor = u.reshape(n, -1)  # mode-1 unfolding of the order-d pattern tensor
    _, _, vh = np.linalg.svd(factor.conj().T, full_matrices=False)
    f1 = np.conj(vh[0])  # top left singular vector of the unfolding
    vec = np.conj(f1) if pi[0] <= d else f1
    return _canonical_phase(vec / np.linalg.norm(vec))


def _rank_one_lift(vec: np.ndarray, pi: tuple[int, ...], d: int) -> np.ndarray:
    """M_pi(conj(x)^{ox d} (x) x^{ox d}) = a a^H for a unit x and a pi that
    satisfies the conjugate condition, with a = _lift_factor(x): a
    trace-one rank-one PSD matrix of M_pi(CPS)."""
    a = _lift_factor(vec, pi, d)
    return np.outer(a, np.conj(a))


def _lift_factor(vec: np.ndarray, pi: tuple[int, ...], d: int) -> np.ndarray:
    """The unit a with M_pi(conj(x)^{ox d} (x) x^{ox d}) = a a^H: the Kronecker
    product of the row modes' factors.  Source modes of T's first half carry
    conj(x), those of the second half x; by the conjugate condition the
    column modes carry the conjugate factors.  Built by outer products, as
    tensor._kron_powers builds x^{ox k}; np.kron gives the same entries."""
    factors = [np.conj(vec) if p <= d else vec for p in pi[:d]]
    a = factors[0]
    for f in factors[1:]:
        a = np.multiply.outer(a, f).reshape(-1)
    return a

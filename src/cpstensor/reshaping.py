"""Mode permutations, vectorization and square matricizations.

The permutation conditions implemented here decide when the pi-matricization
of a CPS tensor is Hermitian (conjugate condition) and when rank-one
matricizations certify rank-one tensors (rank condition).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadPermutation,
    NotInSubspace,
    NotRankOne,
    SizeMismatch,
)
from .linalg import herm_eig
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


class OrbitProjector(NamedTuple):
    """Orthogonal projection onto M_pi(CPS) as an orbit average and gather.

    Matrix entries share an orbit when the tensor entries they hold differ by
    permutations within each mode half.  Averaging over each orbit is the PS
    symmetrization; pairing it with its half-swap partner is the Hermitian
    part.
    """

    orbit: np.ndarray  # orbit label of each flat matrix position
    swap: np.ndarray  # label of each orbit's half-swap partner
    size: np.ndarray  # positions per orbit

    def __call__(self, x: np.ndarray) -> np.ndarray:
        orbit, swap, size = self
        flat = x.reshape(-1)
        re = np.bincount(orbit, weights=flat.real) / size
        im = np.bincount(orbit, weights=flat.imag) / size
        return (0.5 * (re + re[swap]) + 0.5j * (im - im[swap]))[orbit].reshape(x.shape)


@functools.lru_cache(maxsize=32)
def cps_projector(n: int, d: int, pi: tuple[int, ...]) -> OrbitProjector:
    """Orthogonal projection onto M_pi(CPS), built once per (n, d, pi).

    The projection is right for every pi; the output is an exactly Hermitian
    matrix when pi satisfies the conjugate condition.  The identity gives
    tensor coordinates, where the input may also be the order-2d tensor
    itself, since it lays out its entries in the same order.
    """
    big = n**d
    # row m: the digit that mode m+1 of T takes at each flat matrix position
    digits = np.indices((n,) * (2 * d), dtype=np.min_scalar_type(n))
    modes = digits.reshape(2 * d, -1)[np.argsort(pi)]
    place = n ** np.arange(d - 1, -1, -1)
    key = (place @ np.sort(modes[:d], axis=0)) * big + place @ np.sort(modes[d:], axis=0)
    labels, orbit = np.unique(key, return_inverse=True)
    swap = np.searchsorted(labels, (labels % big) * big + labels // big)
    return OrbitProjector(orbit, swap, np.bincount(orbit))


@functools.lru_cache(maxsize=32)
def real_frame(n: int) -> np.ndarray:
    """The unitary U with columns e_i (x) e_i, (e_ij + e_ji)/sqrt2 and
    i (e_ij - e_ji)/sqrt2 for i < j, where e_ij = e_i (x) e_j.

    Each column is fixed by J, the swap of the two factors of C^n (x) C^n
    followed by conjugation.  At d = 2 every matrix X in M_pi(CPS) commutes
    with J, for every pi that meets both conditions, because
    X[(b,a),(d,c)] = conj(X[(a,b),(c,d)]) holds for a Hermitian tensor; so
    U^H X U is real symmetric.
    """
    i, j = np.triu_indices(n, 1)
    pairs = len(i)
    sym, anti = n + np.arange(pairs), n + pairs + np.arange(pairs)
    u = np.zeros((n * n, n * n), dtype=complex)
    u[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    u[i * n + j, sym] = u[j * n + i, sym] = math.sqrt(0.5)
    u[i * n + j, anti] = 1j * math.sqrt(0.5)
    u[j * n + i, anti] = -1j * math.sqrt(0.5)
    u.flags.writeable = False
    return u


@functools.lru_cache(maxsize=32)
def real_cps_projector(n: int, pi: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The d = 2 projection onto M_pi(CPS) in the coordinates Y = U^H X U of
    U = real_frame(n): P_w(Y) = U^H P(U Y U^H) U with P = cps_projector.

    For pi meeting both conditions, U Y U^H is fixed by J for every real Y,
    and so is every matrix of M_pi(CPS); so P_w is the orthogonal projection
    onto the real subspace U^H M_pi(CPS) U, and P_w = Q Q^T for the image Q
    under U^H (.) U of the orthonormal orbit basis of M_pi(CPS): for an orbit
    o with half-swap partner s, (1_o + 1_s) and i (1_o - 1_s), normalized, or
    1_o alone when s = o.  Entry (k, l) of Y lies in at most two columns of
    Q, one for each J-orbit of the positions (r, c) of X with
    U[r, k] U[c, l] != 0.  Those columns and values are found once per
    (n, pi); then P_w costs one weighted bincount and one gather.
    """
    big = n * n
    orbit, swap, size = cps_projector(n, 2, pi)
    u = real_frame(n)
    # the rows of each column of U, e_ab before e_ba, and its two entries there;
    # a diagonal column is e_aa / 2 + e_aa / 2
    nonzero = u != 0
    at = np.array([nonzero.argmax(axis=0), big - 1 - nonzero[::-1].argmax(axis=0)])
    entry = np.take_along_axis(u, at, axis=0)
    entry[:, at[0] == at[1]] = 0.5
    columns, values = [], []
    for b in (0, 1):
        # position (at[0, k], at[b, l]) of X, with weight conj(U[r, k]) U[c, l], and
        # its image under J, (at[1, k], at[1 - b, l]), which lies in the partner orbit
        first = orbit[(at[0][:, None] * big + at[b]).reshape(-1)]
        w = np.outer(np.conj(entry[0]), entry[b]).reshape(-1)
        w_image = np.outer(np.conj(entry[1]), entry[1 - b]).reshape(-1)
        lead = np.minimum(first, swap[first])
        paired = first != swap[first]
        scale = 1.0 / np.sqrt(np.where(paired, 2.0, 1.0) * size[first])
        # a real weight meets only (1_o + 1_s), an imaginary one only i (1_o - 1_s)
        anti = w.imag != 0
        sign = np.where(first == lead, -1.0, 1.0)
        anti_value = np.where(paired, sign * (w - w_image).imag, 0.0)
        columns.append(np.where(anti, len(size) + lead, lead))
        values.append(scale * np.where(anti, anti_value, (w + w_image).real))
    columns, values = np.array(columns), np.array(values)

    def project(y: np.ndarray) -> np.ndarray:
        flat = y.reshape(-1)
        q_y = np.bincount(columns.ravel(), weights=(values * flat).ravel(), minlength=2 * len(size))
        return (values * q_y[columns]).sum(axis=0).reshape(y.shape)

    return project


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
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (n**d, n**d):
        raise SizeMismatch(f"expected shape {(n ** d, n ** d)}, got {x.shape}")
    pi = validate_permutation(pi, 2 * d)
    if not satisfies_conj_condition(pi, d):
        raise BadPermutation(f"{pi} violates the conjugate (Hermitian) condition")
    eig = herm_eig(x)
    ratio = eig.modulus_ratio()
    if ratio > tol:
        raise NotRankOne(f"second/first eigenvalue ratio {ratio:.3e} too large")
    scale = max(np.linalg.norm(x), 1e-300)
    if np.linalg.norm(x - cps_projector(n, d, pi)(x)) / scale > max(tol, 1e-8):
        raise NotInSubspace("matrix does not lie in the matricized CPS subspace")

    top_idx = int(np.argmax(np.abs(eig.eigenvalues)))
    vec = _oriented_vector(eig.eigenvectors[:, top_idx], pi, n, d)
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
    column modes carry the conjugate factors."""
    return functools.reduce(np.kron, [np.conj(vec) if p <= d else vec for p in pi[:d]])

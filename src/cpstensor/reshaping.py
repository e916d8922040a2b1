"""Mode permutations, vectorization and square matricizations.

The permutation conditions implemented here decide when the pi-matricization
of a CPS tensor is Hermitian (conjugate condition) and when rank-one
matricizations certify rank-one tensors (rank condition).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BadPermutation,
    NotInSubspace,
    NotRankOne,
    OrderMismatch,
    SizeMismatch,
)
from . import tensor as tz
from .linalg import HermEigen, herm_eig
from .tensor import DenseTensor

RANK1_TOL = 1e-6
EXTRACT_TOL = 1e-6


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


def invert_permutation(pi) -> tuple[int, ...]:
    inv = [0] * len(pi)
    for pos, p in enumerate(pi):
        inv[p - 1] = pos + 1
    return tuple(inv)


def pi_transpose(t: DenseTensor, pi) -> DenseTensor:
    """Tensor transpose: mode k of the result originates from mode pi_k of t."""
    if len(tuple(pi)) != t.order:
        raise OrderMismatch(f"permutation length {len(tuple(pi))} != order {t.order}")
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
    return pi_transpose(tp, invert_permutation(pi))


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


@functools.lru_cache(maxsize=32)
def cps_projector(n: int, d: int, pi: tuple[int, ...]):
    """Orthogonal projection onto M_pi(CPS), built once per (n, d, pi).

    Matrix entries share an orbit when the tensor entries they hold differ by
    permutations within each mode half.  Averaging over each orbit is the PS
    symmetrization; pairing it with its half-swap partner is the Hermitian
    part, exact by construction.  pi must satisfy the conjugate condition;
    the identity gives tensor coordinates, where the input may also be the
    order-2d tensor itself, since it lays out its entries in the same order.
    """
    big = n**d
    # row m: the digit that mode m+1 of T takes at each flat matrix position
    digits = np.indices((n,) * (2 * d), dtype=np.min_scalar_type(n))
    modes = digits.reshape(2 * d, -1)[np.argsort(pi)]
    place = n ** np.arange(d - 1, -1, -1)
    key = (place @ np.sort(modes[:d], axis=0)) * big + place @ np.sort(modes[d:], axis=0)
    labels, orbit = np.unique(key, return_inverse=True)
    swap = np.searchsorted(labels, (labels % big) * big + labels // big)
    size = np.bincount(orbit)

    def project(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1)
        re = np.bincount(orbit, weights=flat.real) / size
        im = np.bincount(orbit, weights=flat.imag) / size
        return (0.5 * (re + re[swap]) + 0.5j * (im - im[swap]))[orbit].reshape(x.shape)

    return project


def cps_part(w: np.ndarray, d: int) -> np.ndarray:
    """Entries of the projection of an order-2d tensor onto the CPS subspace:
    the PS symmetrization followed by the Hermitian part."""
    return cps_projector(w.shape[0], d, tuple(range(1, 2 * d + 1)))(w)


def cps_projection_residual(t: DenseTensor) -> float:
    """Distance from t to the CPS subspace, relative to ||t||."""
    res = float(np.linalg.norm(t.entries - cps_part(t.entries, t.half)))
    return res / max(t.norm(), 1e-300)


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    """u rotated so that its lowest-index near-max-modulus entry is real positive."""
    mods = np.abs(u)
    top = int(np.argmax(mods >= mods.max() - 1e-12))  # lowest near-max index
    return u * np.conj(u[top] / abs(u[top]))


def extract_rank_one_vector(
    x: np.ndarray,
    pi,
    n: int,
    d: int,
    rank1_tol: float = RANK1_TOL,
    extract_tol: float = EXTRACT_TOL,
) -> tuple[np.ndarray, float]:
    """Recover (unit x, real lam) with X ~ lam * M_pi(conj(x)^{ox d} (x) x^{ox d}).

    For any valid pi such a matrix equals lam * u u^H where u vectorizes the
    tensor product of the first-block factors (each factor is conj(x) or x
    according to whether its source mode sits in the first half).  The top
    eigenvector therefore devectorizes to a rank-one order-d tensor, whose
    leading singular vector of the mode-1 unfolding recovers x up to phase;
    this stays accurate on solver iterates that are only approximately
    rank-one, unlike reading entry patterns directly.  The global phase is
    fixed by making the largest-modulus entry of x real positive (lowest
    index wins ties).
    """
    x = np.asarray(x, dtype=complex)
    pi = validate_permutation(pi, 2 * d)
    return _extract_from_eig(x, herm_eig(x), pi, n, d, rank1_tol, extract_tol)


def _extract_from_eig(
    x: np.ndarray,
    eig: HermEigen,
    pi: tuple[int, ...],
    n: int,
    d: int,
    rank1_tol: float,
    extract_tol: float,
) -> tuple[np.ndarray, float]:
    """extract_rank_one_vector given herm_eig(x) and a validated pi, for
    callers that already hold the eigendecomposition."""
    ratio = eig.modulus_ratio()
    if ratio > rank1_tol:
        raise NotRankOne(f"second/first eigenvalue ratio {ratio:.3e} too large")
    w = dematricize_pi(x, pi, n, d)
    if cps_projection_residual(w) > max(extract_tol, 1e-8):
        raise NotInSubspace("matrix does not lie in the matricized CPS subspace")

    top_idx = int(np.argmax(np.abs(eig.eigenvalues)))
    u = eig.eigenvectors[:, top_idx]
    factor = u.reshape(n, -1)  # mode-1 unfolding of the order-d pattern tensor
    _, _, vh = np.linalg.svd(factor.conj().T, full_matrices=False)
    f1 = np.conj(vh[0])  # top left singular vector of the unfolding
    vec = np.conj(f1) if pi[0] <= d else f1
    vec = _canonical_phase(vec / np.linalg.norm(vec))

    pattern = matricize_pi(tz.rank_one_cps(1.0, vec, d), pi)
    lam = float(np.vdot(pattern, x).real)  # least-squares coefficient, ||pattern|| = 1
    res = np.linalg.norm(x - lam * pattern) / max(np.linalg.norm(x), 1e-300)
    if res > extract_tol:
        raise NotRankOne(f"rank-one reconstruction residual {res:.3e} too large")
    return vec, lam

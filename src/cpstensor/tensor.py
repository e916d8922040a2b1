"""Dense complex tensors with partial-symmetry structure predicates.

A tensor of dimension ``n`` and order ``d`` is stored densely in row-major
(C) order, which is exactly the base-n index map
``offset(i_1..i_d) = sum_k (i_k - 1) n^(d-k)`` with 1-based multi-indices at
the API surface.  Even-order tensors split their modes into a first and a
second half of ``d/2`` modes each; partial symmetry (PS) means invariance
under permutations within each half, and conjugate partial symmetry (CPS)
additionally requires equality with the conjugate transpose, which swaps the
two halves and conjugates entries.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotPartialSymmetric,
    OddOrder,
    ParseError,
    SizeMismatch,
)
from .linalg import ABS_FLOOR, TOL_STRUCT


@dataclass(frozen=True)
class DenseTensor:
    """Dense complex tensor of shape (n,)*order; immutable after construction."""

    n: int
    order: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1 or self.order < 1:
            raise SizeMismatch("dimension and order must be positive")
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=complex))
        if arr.size != self.n**self.order:
            raise SizeMismatch(
                f"expected {self.n ** self.order} entries, got {arr.size}"
            )
        arr = arr.reshape((self.n,) * self.order)
        if not np.all(np.isfinite(arr.view(float))):
            raise SizeMismatch("entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def half(self) -> int:
        if self.order % 2:
            raise OddOrder(f"order {self.order} is odd")
        return self.order // 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def from_entries(n: int, order: int, entries) -> DenseTensor:
    return DenseTensor(n=n, order=order, entries=np.asarray(entries, dtype=complex))


def zero(n: int, order: int) -> DenseTensor:
    return DenseTensor(n=n, order=order, entries=np.zeros((n,) * order, dtype=complex))


def entry(t: DenseTensor, index) -> complex:
    """Read one entry by 1-based multi-index."""
    index = tuple(index)
    if len(index) != t.order:
        raise IndexOutOfRange(f"expected {t.order} indices, got {len(index)}")
    if any(not (1 <= i <= t.n) for i in index):
        raise IndexOutOfRange(f"index {index} outside 1..{t.n}")
    return complex(t.entries[tuple(i - 1 for i in index)])


def linear_offset(n: int, index) -> int:
    """1-based position of a 1-based multi-index in base-n row-major order."""
    d = len(index)
    return sum((index[k] - 1) * n ** (d - 1 - k) for k in range(d)) + 1


def _structure_tol(t: DenseTensor) -> float:
    return max(TOL_STRUCT * t.norm(), ABS_FLOOR)


def _block_swap_conj(arr: np.ndarray, d: int) -> np.ndarray:
    """Raw conjugate transpose: swap the two mode halves and conjugate."""
    axes = list(range(d, 2 * d)) + list(range(d))
    return np.conj(np.transpose(arr, axes))


def is_symmetric(t: DenseTensor) -> bool:
    """True iff entries are invariant under all mode permutations."""
    thr = _structure_tol(t)
    arr = t.entries
    for k in range(t.order - 1):  # adjacent swaps generate the whole group
        if np.max(np.abs(arr - np.swapaxes(arr, k, k + 1))) > thr:
            return False
    return True


def is_ps(t: DenseTensor) -> bool:
    """True iff symmetric within the first half modes and within the last half."""
    d = t.half
    thr = _structure_tol(t)
    arr = t.entries
    for k in itertools.chain(range(d - 1), range(d, 2 * d - 1)):
        if np.max(np.abs(arr - np.swapaxes(arr, k, k + 1))) > thr:
            return False
    return True


def is_cps(t: DenseTensor) -> bool:
    """True iff PS and equal to its conjugate transpose."""
    if not is_ps(t):
        return False
    skew = t.entries - _block_swap_conj(t.entries, t.half)
    return bool(np.max(np.abs(skew)) <= _structure_tol(t))


def conj_transpose(t: DenseTensor) -> DenseTensor:
    """Conjugate transpose of a PS tensor: half-swap composed with conjugation."""
    if not is_ps(t):
        raise NotPartialSymmetric("conjugate transpose needs a PS tensor")
    return DenseTensor(t.n, t.order, _block_swap_conj(t.entries, t.half))


def hermitian_part(t: DenseTensor) -> DenseTensor:
    if not is_ps(t):
        raise NotPartialSymmetric("hermitian part needs a PS tensor")
    h = 0.5 * (t.entries + _block_swap_conj(t.entries, t.half))
    return DenseTensor(t.n, t.order, h)


def skew_part(t: DenseTensor) -> DenseTensor:
    if not is_ps(t):
        raise NotPartialSymmetric("skew part needs a PS tensor")
    s = 0.5 * (t.entries - _block_swap_conj(t.entries, t.half))
    return DenseTensor(t.n, t.order, s)


def cartesian_split(t: DenseTensor) -> tuple[DenseTensor, DenseTensor]:
    """Unique split T = U + iV with U, V both CPS."""
    if not is_ps(t):
        raise NotPartialSymmetric("cartesian split needs a PS tensor")
    th = _block_swap_conj(t.entries, t.half)
    u = 0.5 * (t.entries + th)
    v = -0.5j * (t.entries - th)
    return DenseTensor(t.n, t.order, u), DenseTensor(t.n, t.order, v)


def frob_inner(u: DenseTensor, v: DenseTensor) -> complex:
    """<U, V> = sum conj(U_idx) V_idx."""
    if u.n != v.n or u.order != v.order:
        raise SizeMismatch("shape mismatch in inner product")
    return complex(np.vdot(u.entries, v.entries))


def frob_norm(t: DenseTensor) -> float:
    return t.norm()


def _kron_powers(x: np.ndarray, d: int) -> list[np.ndarray]:
    """The Kronecker powers p_k = x^{ox k}, k = 0..d, as flat vectors of
    length n^k in row-major order: p_0 = [1], p_{k+1} = p_k (x) x."""
    powers = [np.ones(1, dtype=complex)]
    for _ in range(d):
        powers.append(np.multiply.outer(powers[-1], x).reshape(-1))
    return powers


class _FormPoint(NamedTuple):
    """The conjugate form of a _ConjForm at one vector x."""

    x: np.ndarray
    powers: list[np.ndarray]  # p_k = x^{ox k}, k = 0..d
    image: np.ndarray  # r = M p_d
    g: np.ndarray  # the partial map at x
    value: complex  # T(conj(x)^d x^d) = x^H g


class _ConjForm:
    """The conjugate form of an order-2d tensor T on plain arrays, through
    its flat n^d x n^d matricization M, rows the first mode half.

    At a vector x, with p_k = x^{ox k}, one product r = M p_d gives the
    partial map g = r (n x n^{d-1}) conj(p_{d-1}) and the form x^H g
    (at); a second one, with M read as n^{d+1} x n^{d-1}, gives g's
    Wirtinger derivatives (derivatives).  The caller checks T and x."""

    def __init__(self, t: DenseTensor):
        d = t.half
        self.n, self.d = t.n, d
        self.matrix = t.entries.reshape(t.n**d, t.n**d)

    @functools.cached_property
    def norm(self) -> float:
        """||T||_F."""
        return float(np.linalg.norm(self.matrix))

    def at(self, x: np.ndarray) -> _FormPoint:
        powers = _kron_powers(x, self.d)
        image = self.matrix @ powers[-1]
        g = image.reshape(self.n, -1) @ np.conj(powers[-2])
        return _FormPoint(x, powers, image, g, complex(np.vdot(x, g)))

    def derivatives(self, point: _FormPoint) -> tuple[np.ndarray, np.ndarray]:
        """The Wirtinger derivatives of g at a point: A = dg/dx, which is
        Hermitian for a CPS T, and B = dg/dconj(x), which is symmetric for
        a PS one.  T is symmetric within each mode half, so A is d times T
        contracted with x on d - 1 second-half modes and with conj(x) on
        modes 2..d, and B is d - 1 times r contracted with conj(x) on modes
        3..d (B = 0 at d = 1)."""
        n, d, powers = self.n, self.d, point.powers
        head = self.matrix.reshape(n ** (d + 1), -1) @ powers[d - 1]
        a = d * (np.conj(powers[d - 1]) @ head.reshape(n, -1, n))
        if d == 1:
            return a, np.zeros_like(a)
        return a, (d - 1) * (point.image.reshape(n, n, -1) @ np.conj(powers[d - 2]))


def _form_vector(t: DenseTensor, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (t.n,):
        raise SizeMismatch(f"expected a vector of length {t.n}")
    return x


def conj_form_eval(t: DenseTensor, x) -> complex:
    """Conjugate form value sum T_idx conj(x)_{i_1..i_d} x_{i_{d+1}..i_{2d}}."""
    return _ConjForm(t).at(_form_vector(t, x)).value


def partial_map(t: DenseTensor, x) -> np.ndarray:
    """Gradient-type map: entry i equals the conjugate form with the first
    conjugated slot replaced by the i-th unit vector."""
    return _ConjForm(t).at(_form_vector(t, x)).g


# Plain records: their fields are stored as given, and a consumer that needs
# an array converts the field where it uses it.
class CpsTerm(NamedTuple):
    """One rank-one CPS term: coeff * conj(a)^{ox d} (x) a^{ox d}, coeff real."""

    coeff: float
    vector: np.ndarray


class PsTerm(NamedTuple):
    """One rank-one PS term: same shape as CpsTerm but with a complex coeff."""

    coeff: complex
    vector: np.ndarray


class EigenPair(NamedTuple):
    """C-eigenpair (value, unit vector)."""

    value: complex
    vector: np.ndarray


def assemble(terms, n: int, d: int) -> DenseTensor:
    """Sum of rank-one terms coeff * conj(a)^{ox d} (x) a^{ox d} as a dense tensor."""
    big = n**d
    acc = np.zeros((big, big), dtype=complex)
    for term in terms:
        a = np.asarray(term.vector, dtype=complex)
        if a.shape != (n,):
            raise SizeMismatch(f"term vector must have length {n}")
        u = _kron_powers(a, d)[-1]
        acc += term.coeff * np.outer(np.conj(u), u)
    return DenseTensor(n, 2 * d, acc.reshape((n,) * (2 * d)))


def symmetrize_ps(t: DenseTensor) -> DenseTensor:
    """Average over all permutations of the first d and of the last d modes."""
    d = t.half
    perms = list(itertools.permutations(range(d)))
    acc = np.zeros_like(t.entries)
    for p in perms:
        for q in perms:
            axes = [*p, *(d + k for k in q)]
            acc += np.transpose(t.entries, axes)
    return DenseTensor(t.n, t.order, acc / (len(perms) ** 2))


def symmetrize_full(t: DenseTensor) -> DenseTensor:
    """Average over all mode permutations (projector onto symmetric tensors)."""
    acc = np.zeros_like(t.entries)
    perms = list(itertools.permutations(range(t.order)))
    for p in perms:
        acc += np.transpose(t.entries, p)
    return DenseTensor(t.n, t.order, acc / len(perms))


def tensor_to_json(t: DenseTensor) -> str:
    flat = t.entries.reshape(-1)
    payload = {
        "n": t.n,
        "d": t.order,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }
    return json.dumps(payload)


def tensor_from_json(text: str) -> DenseTensor:
    try:
        payload = json.loads(text)
        n = int(payload["n"])
        order = int(payload["d"])
        pairs = payload["entries"]
        flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed tensor JSON: {exc}") from exc
    if flat.size != n**order:
        raise ParseError(f"expected {n ** order} entries, got {flat.size}")
    return DenseTensor(n, order, flat)


def save_tensor(t: DenseTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tensor_to_json(t))


def load_tensor(path) -> DenseTensor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"tensor file {path} is not UTF-8 text: {exc}") from None
    return tensor_from_json(text)


def rank_one_cps(coeff: float, a, d: int) -> DenseTensor:
    """Convenience constructor for a single rank-one CPS tensor."""
    a = np.asarray(a, dtype=complex)
    return assemble([CpsTerm(coeff, a)], a.shape[0], d)

"""The paper's constructive proof that every CPS tensor is a real sum of
rank-one CPS terms, reproduced step by step for the tests.

1. spectral split: the standard matricization of T is Hermitian and its
   eigenvectors (for nonzero eigenvalues) devectorize to symmetric order-d
   tensors, giving T = sum_j s_j conj(Z_j) (x) Z_j with signs s_j.
2. symmetric rank-one decomposition of each Z_j = sum_k a_k^{ox d}.
3. a complex Hilbert-identity expansion turns |sum_k (A x)_k^d|^2 into a real
   combination of powers |c^T x|^{2d}, which assembles conj(Z) (x) Z from
   rank-one CPS terms.

The expansion solves two small Vandermonde systems and averages over roots of
unity; it is exact up to round-off, no sampling involved, but its term count
is exponential in the symmetric rank.  The package decomposes by
``cpstensor.decompose.cps_decompose`` instead; this module checks the theorem.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from cpstensor import tensor as tz
from cpstensor.decompose import PRUNE_REL, TOL_DECOMP
from cpstensor.errors import NotCps, NotSymmetric, TermBudgetExceeded
from cpstensor.linalg import _eigh
from cpstensor.reshaping import _canonical_phase, matricize
from cpstensor.tensor import CpsTerm, DenseTensor

MAX_SYM_RANK = 6  # Hilbert expansion is exponential in the symmetric rank
TAKAGI_REL = 1e-12  # con-eigenvalues kept by takagi, relative to the largest


class NonSymmetricEigenvector(Exception):
    """An eigenvector of the matricization did not devectorize to a symmetric tensor."""


class ResidualTooLarge(Exception):
    """Realified terms do not reproduce their CPS target."""


def hilbert_nodes(d: int) -> np.ndarray:
    """Nodes for the odd/even power system: distinct nonzero reals.

    Symmetric integers {+-1, .., +-d, d+1} keep the alternating Vandermonde
    solution small, which limits cancellation in the expanded identity.
    """
    nodes = [s * k for k in range(1, d + 1) for s in (1, -1)]
    nodes.append(d + 1)
    return np.array(sorted(nodes), dtype=float)


def hilbert_nodes_even(d: int) -> np.ndarray:
    """Nodes for the even-d correction system; squares must be distinct."""
    return np.arange(1, d + 2, dtype=float)


def vandermonde_power_solution(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve sum_j a_j^k z_j = gamma_k for k = 0..2d with gamma_0 = 1,
    gamma_d = sqrt(d!), gamma_{2d} = d! and zeros elsewhere, on the nodes
    a_j = hilbert_nodes(d)."""
    nodes = hilbert_nodes(d)
    a = np.array([[x**k for x in nodes] for k in range(2 * d + 1)], dtype=float)
    rhs = np.zeros(2 * d + 1)
    rhs[0] = 1.0
    rhs[d] = math.sqrt(math.factorial(d))
    rhs[2 * d] = float(math.factorial(d))
    return nodes, scipy.linalg.solve(a, rhs)


def vandermonde_square_solution(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve sum_j b_j^{2k} y_j = delta_k for k = 0..d with
    delta_0 = delta_{d/2} = 1 and zeros elsewhere (even d only), on the nodes
    b_j = hilbert_nodes_even(d)."""
    nodes = hilbert_nodes_even(d)
    a = np.array([[x ** (2 * k) for x in nodes] for k in range(d + 1)], dtype=float)
    rhs = np.zeros(d + 1)
    rhs[0] = 1.0
    rhs[d // 2] = 1.0
    return nodes, scipy.linalg.solve(a, rhs)


def hilbert_terms(a: np.ndarray, d: int) -> list[CpsTerm]:
    """Terms (lam, c) with sum lam |c^T x|^{2d} = |sum_i (A x)_i^d|^2 for all x.

    Row count r of A drives the cost: the enumeration is exponential in r.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    r, _ = a.shape
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and at least one row")
    if r > MAX_SYM_RANK:
        raise TermBudgetExceeded(f"symmetric rank {r} exceeds budget {MAX_SYM_RANK}")

    terms: list[CpsTerm] = []
    alpha, z = vandermonde_power_solution(d)
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    fact = float(math.factorial(d))
    for ks in itertools.product(range(2 * d + 1), repeat=r):
        coef = float(np.prod(z[list(ks)])) / fact / d**r
        scale = alpha[list(ks)]
        for ws in itertools.product(range(d), repeat=r):
            b = scale * omega[list(ws)]
            terms.append(CpsTerm(coef, a.T @ b))

    if d % 2 == 0:
        beta, y = vandermonde_square_solution(d)
        omega1 = np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
        for ks in itertools.product(range(d + 1), repeat=r):
            coef = -float(np.prod(y[list(ks)])) / (d + 1) ** r
            scale = beta[list(ks)]
            for ws in itertools.product(range(d + 1), repeat=r):
                b = scale * omega1[list(ws)]
                terms.append(CpsTerm(coef, a.T @ b))

    return merge_terms(terms, d)


def merge_terms(terms, d: int) -> list[CpsTerm]:
    """Fold terms with (phase/scale) parallel vectors into single terms.

    Each term is canonicalized to a unit vector whose largest-modulus entry is
    real positive; |scale|^{2d} moves into the coefficient.  Summation order
    is fixed by the canonical keys, so merging is deterministic.  Terms whose
    merged coefficient is exactly zero are dropped.
    """
    buckets: dict[bytes, tuple[np.ndarray, float]] = {}  # in first-seen order
    for term in terms:
        a = np.asarray(term.vector, dtype=complex)
        nrm = np.linalg.norm(a)
        if nrm == 0.0 or term.coeff == 0.0:
            continue
        u = _canonical_phase(a / nrm)
        key = (np.round(u, 9) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0
        lam = term.coeff * nrm ** (2 * d)
        if key in buckets:
            vec, acc = buckets[key]
            buckets[key] = (vec, acc + lam)
        else:
            buckets[key] = (u, lam)
    return [CpsTerm(lam, vec) for vec, lam in buckets.values() if abs(lam) > 0.0]


def spectral_split(t: DenseTensor) -> list[tuple[int, DenseTensor]]:
    """Write a CPS tensor as sum_j s_j conj(Z_j) (x) Z_j with s_j in {-1, +1}
    and Z_j symmetric of order d."""
    if not tz.is_cps(t):
        raise NotCps("spectral split needs a CPS tensor")
    d = t.half
    m = matricize(t)
    m = 0.5 * (m + m.conj().T)
    mus, ws = _eigh(m)
    thr = max(TOL_DECOMP * t.norm(), 1e-12)
    out: list[tuple[int, DenseTensor]] = []
    for mu, w in zip(mus[::-1], ws.T[::-1]):  # eigenvalues descending
        if abs(mu) <= thr:
            continue
        z = DenseTensor(t.n, d, math.sqrt(abs(mu)) * np.conj(w).reshape((t.n,) * d))
        zs = tz.symmetrize_full(z)
        res = np.linalg.norm(z.entries - zs.entries) / max(z.norm(), 1e-300)
        if res > TOL_DECOMP:
            raise NonSymmetricEigenvector(
                f"eigenvector symmetrization residual {res:.3e}"
            )
        out.append((1 if mu > 0 else -1, zs))
    return out


def takagi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as Z = sum_k s_k u_k u_k^T.

    Uses the real symmetric embedding [[Re, Im], [Im, -Re]], whose eigenpairs
    (s, [x; y]) with s > 0 give con-eigenvectors u = x + iy of Z.  Returns
    (sigma, U) with sigma descending and above TAKAGI_REL times the largest
    eigenvalue modulus, and orthonormal columns U.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    z = 0.5 * (z + z.T)
    re, im = z.real, z.imag
    big = np.block([[re, im], [im, -re]])
    w, v = np.linalg.eigh(big)
    keep = w > max(TAKAGI_REL * np.abs(w).max(initial=0.0), 1e-300)
    sig = w[keep][::-1]
    vecs = v[:, keep][:, ::-1]
    u = vecs[:n, :] + 1j * vecs[n:, :]
    return sig, u


def symmetric_rank_one_decompose(z: DenseTensor) -> list[np.ndarray]:
    """Vectors a_k with Z = sum_k a_k^{ox d} for a symmetric complex tensor.

    d = 1 is trivial, d = 2 uses the Takagi factorization (at most n terms),
    and d >= 3 expands the symmetrized basis through the polarization
    identity (at most 2^{d-1} terms per distinct index multiset).
    """
    if not tz.is_symmetric(z):
        raise NotSymmetric("input is not a symmetric tensor")
    d, n = z.order, z.n
    if d == 1:
        v = z.entries.reshape(-1)
        return [] if np.linalg.norm(v) == 0 else [v.copy()]
    if d == 2:
        sig, u = takagi(z.entries)
        return [np.sqrt(s) * u[:, k] for k, s in enumerate(sig)]

    thr = max(PRUNE_REL * z.norm(), 1e-300)
    vectors: list[np.ndarray] = []
    for multiset in itertools.combinations_with_replacement(range(n), d):
        val = complex(z.entries[multiset])
        count = _distinct_permutation_count(multiset)
        if abs(val) * count <= thr:
            continue
        # sym(e_{i1} ox .. ox e_{id}) via polarization, epsilon_1 fixed to +1
        for signs in itertools.product((1, -1), repeat=d - 1):
            eps = (1,) + signs
            w = np.zeros(n, dtype=complex)
            for e, idx in zip(eps, multiset):
                w[idx] += e
            if np.linalg.norm(w) == 0:
                continue
            gamma = val * count * np.prod(eps) / (2 ** (d - 1) * math.factorial(d))
            root = abs(gamma) ** (1.0 / d) * np.exp(1j * np.angle(gamma) / d)
            vectors.append(root * w)
    return vectors


def _distinct_permutation_count(multiset) -> int:
    c = math.factorial(len(multiset))
    for _, group in itertools.groupby(multiset):
        c //= math.factorial(len(list(group)))
    return c


def square_modulus_decompose(z: DenseTensor) -> list[CpsTerm]:
    """Rank-one CPS terms assembling to conj(Z) (x) Z for symmetric Z."""
    vecs = symmetric_rank_one_decompose(z)
    if not vecs:
        return []
    a = np.array(vecs)  # rows a_k^T, so (A x)_k = a_k^T x
    return hilbert_terms(a, z.order)


def realify_coefficients(terms, t: DenseTensor) -> list[CpsTerm]:
    """Drop imaginary parts of PS-term coefficients for a CPS target.

    The imaginary combination assembles to the zero tensor by uniqueness of
    the Hermitian/skew split, so the real parts still reproduce T.
    """
    if not tz.is_cps(t):
        raise NotCps("realification target must be CPS")
    d = t.half
    real_terms = [
        CpsTerm(complex(term.coeff).real, term.vector)
        for term in terms
        if abs(complex(term.coeff).real) > 0.0
    ]
    recon = tz.assemble(real_terms, t.n, d)
    res = np.linalg.norm(recon.entries - t.entries)
    if res > max(TOL_DECOMP * t.norm(), 1e-12):
        raise ResidualTooLarge(f"realified terms miss the target by {res:.3e}")
    return real_terms

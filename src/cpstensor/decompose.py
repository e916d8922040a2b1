"""Rank-one CPS decompositions.

A CPS tensor T of order 2d is a Hermitian form on Sym^d(C^n): its entry at
index multisets (alpha, beta) is H[alpha, beta], an N x N Hermitian matrix
with N = C(n+d-1, d), and a rank-one term lam conj(a)^{ox d} (x) a^{ox d}
contributes lam conj(a^alpha) a^beta.  ``cps_decompose`` solves for the real
coefficients of N^2 fixed unit vectors, whose terms span that N^2-dimensional
real space; the design is built and factored once per (n, d), so a call is
one gather and one triangular solve, and returns at most N^2 terms.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    NonHermitianInput,
    NotCps,
    NotInSubspace,
    NotPartialSymmetric,
    NotRankOne,
    TermBudgetExceeded,
    ZeroMatrix,
)
from . import tensor as tz
from .reshaping import extract_rank_one_vector, matricize
from .tensor import CpsTerm, DenseTensor, PsTerm

log = logging.getLogger(__name__)

TOL_DECOMP = 1e-8
MAX_DESIGN_TERMS = 1296  # N^2: n <= 8 at d = 2, n <= 5 at d = 3
DESIGN_SEED = 0
PRUNE_REL = 1e-12


class CpsDesign(NamedTuple):
    """Unit vectors whose rank-one CPS terms form a basis of the order-2d CPS
    tensors in n variables, with the factored coordinate system."""

    gather: np.ndarray  # flat entry positions: H's diagonal, then its upper triangle
    lu: tuple  # lu_factor of the N^2 x N^2 coordinate matrix, one column per vector
    vectors: np.ndarray  # row k is the k-th unit vector


@functools.lru_cache(maxsize=32)
def _cps_design(n: int, d: int) -> CpsDesign:
    """The fixed design of cps_decompose, built once per (n, d).

    Coordinates of a CPS tensor are the real diagonal and the real and
    imaginary parts of the strict upper triangle of H.  Seeded random unit
    vectors (root-of-unity grids are rank-deficient) give 2N^2 candidate
    columns; column-pivoted QR keeps the N^2 best conditioned of them.
    """
    multisets = np.array(list(itertools.combinations_with_replacement(range(n), d)))
    size = len(multisets)
    iu, ju = np.triu_indices(size, 1)
    rows = np.concatenate([np.arange(size), iu])
    cols = np.concatenate([np.arange(size), ju])
    flat = multisets @ n ** np.arange(d - 1, -1, -1)  # representative positions
    gather = flat[rows] * n**d + flat[cols]

    rng = np.random.default_rng(DESIGN_SEED)
    cand = rng.standard_normal((2 * size**2, n)) + 1j * rng.standard_normal((2 * size**2, n))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    powers = np.prod(cand[:, multisets], axis=2)  # a^alpha for every multiset
    form = np.conj(powers[:, rows]) * powers[:, cols]
    system = np.concatenate([form.real, form.imag[:, size:]], axis=1).T
    _, pivots = scipy.linalg.qr(system, mode="r", pivoting=True)
    keep = np.sort(pivots[: size**2])
    log.debug("cps design n=%d d=%d terms=%d", n, d, size**2)
    return CpsDesign(gather, scipy.linalg.lu_factor(system[:, keep]), cand[keep])


def cps_decompose(t: DenseTensor) -> list[CpsTerm]:
    """Rank-one CPS decomposition T = sum_j lam_j conj(a_j)^{ox d} (x) a_j^{ox d}
    with real lam_j and unit a_j; round trip within TOL_DECOMP * ||T||.

    A rank-one T comes back as its single term.  Otherwise the coefficients
    on the fixed design of (n, d) are solved for, and the at most N^2 terms
    with |lam_j| above PRUNE_REL * ||T|| are returned.
    """
    if not tz.is_cps(t):
        raise NotCps("decomposition needs a CPS tensor")
    d = t.half
    size = math.comb(t.n + d - 1, d)  # N, the dimension of Sym^d(C^n)
    if size**2 > MAX_DESIGN_TERMS:
        raise TermBudgetExceeded(
            f"design of N^2 = {size**2} terms exceeds budget {MAX_DESIGN_TERMS}"
        )
    try:
        vec, lam = extract_rank_one_vector(matricize(t), range(1, 2 * d + 1), t.n, d, TOL_DECOMP)
        return [CpsTerm(lam, vec)]
    except (NonHermitianInput, NotRankOne, NotInSubspace, ZeroMatrix):
        pass
    design = _cps_design(t.n, d)
    vals = t.entries.reshape(-1)[design.gather]
    lam = scipy.linalg.lu_solve(design.lu, np.concatenate([vals.real, vals.imag[size:]]))
    keep = np.abs(lam) > PRUNE_REL * t.norm()
    return [CpsTerm(c, a) for c, a in zip(lam[keep].tolist(), design.vectors[keep])]


def ps_decompose(t: DenseTensor) -> list[PsTerm]:
    """Rank-one decomposition of a PS tensor with complex coefficients."""
    if not tz.is_ps(t):
        raise NotPartialSymmetric("decomposition needs a PS tensor")
    u, v = tz.cartesian_split(t)
    out = [PsTerm(term.coeff, term.vector) for term in cps_decompose(u)]
    out += [PsTerm(1j * term.coeff, term.vector) for term in cps_decompose(v)]
    return out


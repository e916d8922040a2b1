"""Dense complex linear-algebra kernel used by every other module.

Hermitian eigenproblems run through two kernels that call LAPACK directly
(``scipy.linalg.eigh``'s argument checks cost more than the call itself at
N = 16).  ``_eigh`` calls ``?syevr`` / ``?heevr`` for all eigenpairs or a
range of them by index: the dual bound in ``rank_one`` takes the largest
eigenvalue alone, and the rank-one test in ``reshaping`` and the spectral
split in ``decompose`` all of them.  ``_spectral_prox``, the PSD projection
and the eigenvalue soft threshold of the ADMM loop, reduces its matrix to
tridiagonal form once, finds every eigenvalue there by ``?sterf`` and
computes only the eigenvectors it keeps, by inverse iteration.

All functions are pure, operate on plain ``complex128`` numpy arrays (real
``float64`` input to the Hermitian routines stays real) and keep no shared
state, so they are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergence, NonHermitianInput, ZeroMatrix

TOL_STRUCT = 1e-8

# absolute floor so zero matrices pass relative structure checks
ABS_FLOOR = 1e-12

_EVR = {np.dtype(np.float64): lapack.dsyevr, np.dtype(np.complex128): lapack.zheevr}
_TRD = {np.dtype(np.float64): lapack.dsytrd, np.dtype(np.complex128): lapack.zhetrd}
_MQR = {np.dtype(np.float64): lapack.dormqr, np.dtype(np.complex128): lapack.zunmqr}


def require_hermitian(x: np.ndarray) -> np.ndarray:
    """Return X symmetrized, or raise NonHermitianInput if it is not Hermitian.
    A real X stays real, so its eigendecomposition runs in real arithmetic."""
    x = np.asarray(x)
    x = x.astype(np.result_type(x.dtype, np.float64), copy=False)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {x.shape}")
    res = float(np.linalg.norm(x - x.conj().T))  # norm of the skew part
    if res > max(TOL_STRUCT * np.linalg.norm(x), ABS_FLOOR):
        raise NonHermitianInput(f"symmetry residual {res:.3e} exceeds tolerance")
    return 0.5 * (x + x.conj().T)


def _eigh(
    h: np.ndarray, select: str = "A", vectors: bool = True, **bounds
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of a Hermitian float64 or complex128 matrix h, w
    ascending, by LAPACK's ?syevr / ?heevr on the lower triangle of h, which
    it overwrites unless select is "I": all of them for select "A" (by
    MRRR) and the il-th to iu-th (1-based) for "I" (by bisection and inverse
    iteration; only the vectors asked for are mapped back from tridiagonal
    form).  V is empty without vectors.  A non-finite h, which LAPACK's
    bisection rejects, gives NaN, as numpy's eigh does.

    Bisection can miss the il-th to iu-th eigenvalues inside a tight
    cluster: ?stebz then reports info = 2 without vectors, and with vectors
    the call returns none and info = 0 (a top eigenvalue of multiplicity 8
    at N = 16 does it).  For "I", h is kept and such a call is redone by
    LAPACK's documented cure, all eigenpairs, of which il to iu are kept."""
    if not np.isfinite(h).all():
        return np.full(len(h), np.nan), np.full((len(h), len(h)), np.nan, dtype=h.dtype)
    evr = _EVR[h.dtype]
    w, v, m, _, info = evr(
        h, compute_v=vectors, range=select, lower=1, overwrite_a=select != "I", **bounds
    )
    if select == "I" and (info != 0 or m != bounds["iu"] - bounds["il"] + 1):
        w, v, m, _, info = evr(h, compute_v=vectors, lower=1, overwrite_a=1)
        keep = slice(bounds["il"] - 1, bounds["iu"])
        w, v = w[keep], v[:, keep]
        m = len(w)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"?syevr / ?heevr returned info={info}")
    return w[:m], v[:, :m]


def _spectral_prox(x: np.ndarray, tau: float | None = None) -> np.ndarray:
    """Prox on the eigenvalues w of the Hermitian part H of x, unchecked: the
    PSD projection max(w, 0) without tau, else the soft threshold by tau.

    H = Q T Q^H is reduced to a real tridiagonal T once (?sytrd / ?hetrd),
    every eigenvalue of T is found by ?sterf, and only the eigenpairs the
    prox keeps, w > 0 or |w| > tau, get a vector: by inverse iteration on T
    (?stein), mapped back by Q (?ormqr / ?unmqr).  All eigenpairs of H come
    from _eigh instead at N = 1, for a non-finite H, when T splits (an exact
    zero off-diagonal, as for a diagonal H) and when ?sterf or ?stein
    reports a failure."""
    h = 0.5 * (x + x.conj().T)
    n = len(h)
    if n > 1 and np.isfinite(h).all():
        a, d, e, reflectors, _ = _TRD[h.dtype](h, lower=1)
        w, info = lapack.dsterf(d, e)
        if info == 0 and e.all():
            w = w[w > 0.0] if tau is None else w[np.abs(w) > tau]
            if not len(w):
                return np.zeros_like(h)
            z, info = lapack.dstein(d, e, w, np.ones(n, np.int32), np.full(n, n, np.int32))
            if info == 0:
                # Q = diag(1, Q'), Q' the product of the reflectors below T's diagonal
                v = z.astype(h.dtype, order="F", copy=False)
                v[1:], _, _ = _MQR[h.dtype]("L", "N", a[1:, :-1], reflectors, v[1:], len(w))
                return _spectral_product(v, w, tau)
    w, v = _eigh(h)
    return _spectral_product(v, w, tau)


def _spectral_product(v: np.ndarray, w: np.ndarray, tau: float | None) -> np.ndarray:
    """V diag(f(w)) V^H for the prox's map f of the eigenvalues w."""
    w = np.maximum(w, 0.0) if tau is None else np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return (v * w) @ v.conj().T


def _modulus_ratio(w: np.ndarray) -> float:
    """|lambda_2| / |lambda_1| of the eigenvalues w, in any order, by modulus;
    zero means numerically rank one."""
    mods = np.sort(np.abs(w))[::-1]
    if mods[0] <= 0.0:
        raise ZeroMatrix("matrix is numerically zero")
    if len(mods) == 1:
        return 0.0
    return float(mods[1] / mods[0])


def top_singular_ratio(x: np.ndarray) -> float:
    """|lambda_2| / |lambda_1| of a Hermitian matrix; zero means rank one."""
    return _modulus_ratio(_eigh(require_hermitian(x), vectors=False)[0])

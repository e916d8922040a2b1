"""Dense complex linear-algebra kernel used by every other module.

Every Hermitian eigenproblem runs through one kernel, ``_eigh``, which calls
LAPACK's ``?syevr`` / ``?heevr`` directly (``scipy.linalg.eigh``'s argument
checks cost more than the call itself at N = 16) and computes only the
eigenpairs asked for: the PSD projection of ``_spectral_prox`` those with
w > 0, its soft threshold by tau those with w > tau unless a Cholesky
factorization of H + tau I fails, the dual bound in ``rank_one`` the largest
eigenvalue alone, and the rank-one test in ``reshaping`` and the spectral
split in ``decompose`` all of them.

All functions are pure, operate on plain ``complex128`` numpy arrays (real
``float64`` input to the Hermitian routines stays real) and keep no shared
state, so they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergence, NonHermitianInput, ZeroMatrix

TOL_STRUCT = 1e-8

# absolute floor so zero matrices pass relative structure checks
ABS_FLOOR = 1e-12

_EVR = {np.dtype(np.float64): lapack.dsyevr, np.dtype(np.complex128): lapack.zheevr}
_POTRF = {np.dtype(np.float64): lapack.dpotrf, np.dtype(np.complex128): lapack.zpotrf}


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
    MRRR), those with vl < w <= vu for "V" and the il-th to iu-th (1-based)
    for "I" (by bisection and inverse iteration; only the vectors asked for
    are mapped back from tridiagonal form).  V is empty without vectors.  A non-finite
    h, which LAPACK's bisection rejects, gives NaN, as numpy's eigh does.

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

    Only the eigenpairs the prox keeps are computed: w > 0, or w > tau when
    a Cholesky factorization shows H + tau I positive definite, so that no
    w lies at or below -tau; otherwise all of them."""
    h = 0.5 * (x + x.conj().T)
    if tau is None:
        w, v = _eigh(h, "V", vl=0.0, vu=math.inf)
    else:
        shifted = h.copy()
        shifted.flat[:: len(h) + 1] += tau
        _, info = _POTRF[h.dtype](shifted, lower=1, clean=0, overwrite_a=1)
        w, v = _eigh(h, "V", vl=tau, vu=math.inf) if info == 0 else _eigh(h)
        w = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
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

"""Dense complex linear-algebra kernel used by every other module.

All functions are pure, operate on plain ``complex128`` numpy arrays and
keep no shared state, so they are safe to call concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoConvergence, NonHermitianInput, SingularMatrix, ZeroMatrix

TOL_STRUCT = 1e-8
TOL_PIVOT = 1e-12

# absolute floor so zero matrices pass relative structure checks
ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class HermEigen:
    """Spectral decomposition X = V diag(w) V^H with real w in descending order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]

    def modulus_ratio(self) -> float:
        """|lambda_2| / |lambda_1| by modulus; zero means numerically rank one."""
        mods = np.sort(np.abs(self.eigenvalues))[::-1]
        if mods[0] <= 0.0:
            raise ZeroMatrix("matrix is numerically zero")
        if len(mods) == 1:
            return 0.0
        return float(mods[1] / mods[0])


def require_hermitian(x: np.ndarray) -> np.ndarray:
    """Return X symmetrized, or raise NonHermitianInput if it is not Hermitian."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {x.shape}")
    res = float(np.linalg.norm(x - x.conj().T))  # norm of the skew part
    if res > max(TOL_STRUCT * np.linalg.norm(x), ABS_FLOOR):
        raise NonHermitianInput(f"symmetry residual {res:.3e} exceeds tolerance")
    return 0.5 * (x + x.conj().T)


def herm_eig(x: np.ndarray) -> HermEigen:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues descending."""
    xh = require_hermitian(x)
    try:
        w, v = np.linalg.eigh(xh)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return HermEigen(eigenvalues=w[order], eigenvectors=v[:, order])


def _spectral_prox(x: np.ndarray, tau: float | None = None) -> np.ndarray:
    """Prox on the eigenvalues w of the Hermitian part of x, unchecked: the
    PSD projection max(w, 0) without tau, else the soft threshold by tau."""
    try:
        w, v = np.linalg.eigh(0.5 * (x + x.conj().T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    if tau is None:
        w = np.maximum(w, 0.0)
    else:
        w = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return (v * w) @ v.conj().T


def project_psd(x: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: clip negative eigenvalues."""
    return _spectral_prox(require_hermitian(x))


def eig_soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Nuclear-norm proximal operator on Hermitian matrices.

    Shrinks every eigenvalue toward zero by ``tau``, clamping at zero, which
    keeps the sign pattern of the spectrum.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _spectral_prox(require_hermitian(x), tau)


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax = b by partial-pivot LU; raise SingularMatrix on tiny pivots."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SingularMatrix(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise SingularMatrix("right-hand side length does not match")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=True)
    pivots = np.abs(np.diag(lu))
    scale = pivots.max(initial=0.0)
    if scale == 0.0 or pivots.min() < TOL_PIVOT * scale:
        raise SingularMatrix("pivot magnitude below tolerance")
    return scipy.linalg.lu_solve((lu, piv), b)


def top_singular_ratio(x: np.ndarray) -> float:
    """|lambda_2| / |lambda_1| of a Hermitian matrix; zero means rank one."""
    return herm_eig(x).modulus_ratio()

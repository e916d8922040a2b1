"""Experiment drivers: radar quartic design, random CPS instances, and
largest US-eigenvalues of symmetric complex tensors.

The radar objective phi(s) - rho |s^H s0|^2 ||s||^2 is a real quartic
conjugate form, hence carried by an order-4 CPS tensor; minimizing it is the
largest-eigenvalue problem for the negated tensor.  US-eigenvalues of a
symmetric Z lift to C-eigenvalues of the CPS tensor Z (x) conj(Z): the
largest squared US-eigenvalue is the lifted tensor's largest C-eigenvalue.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NotSymmetric, RangeError, SizeMismatch, Uncertified
from . import rank_one as r1
from . import reshaping as rs
from . import tensor as tz
from .rank_one import MAX_ITER, SolveReport
from .tensor import DenseTensor, _json_int, _json_real


def shift_matrix(n: int, r: int) -> np.ndarray:
    """Down-shift by r rows: entry (i, j) is 1 iff i - j = r; J^0 = I."""
    if not 0 <= r <= n - 1:
        raise RangeError(f"shift {r} outside 0..{n - 1}")
    return np.eye(n, k=-r, dtype=complex)


def steering(n: int, v: float) -> np.ndarray:
    """Steering vector (1, e^{i 2 pi v}, ..., e^{i 2 (n-1) pi v})."""
    return np.exp(2j * np.pi * v * np.arange(n))


class SesquiForm(NamedTuple):
    """Weighted squared-modulus term w * |conj(s)^T B s|^2."""

    weight: float
    matrix: np.ndarray


def cps_from_sesqui_forms(forms, n: int) -> DenseTensor:
    """Order-4 CPS tensor T with T(conj(s)^2 s^2) = sum_t w_t |conj(s)^T B_t s|^2."""
    raw = np.zeros((n, n, n, n), dtype=complex)
    for form in forms:
        b = np.asarray(form.matrix, dtype=complex)
        if b.shape != (n, n):
            raise SizeMismatch(f"form matrix must be {n}x{n}")
        # |conj(s)^T B s|^2 = sum_{ijkl} B_ij conj(B_kl) conj(s_i) conj(s_l) s_j s_k
        raw += form.weight * np.einsum("ij,kl->iljk", b, np.conj(b))
    return DenseTensor(n, 4, rs.cps_part(raw, 2))


@dataclass(frozen=True)
class ClutterPatch:
    range_bin: int
    freqs: tuple[int, ...]  # 1-based frequency indices
    power: float


@dataclass(frozen=True)
class RadarScenario:
    n: int
    m: int
    rho: float
    patches: tuple[ClutterPatch, ...]
    s0_seed: int
    s0: np.ndarray = field(init=False, repr=False, compare=False)  # reference_code(n, s0_seed)

    def __post_init__(self):
        if self.n < 1:
            raise RangeError(f"code length n must be at least 1, got {self.n}")
        if not math.isfinite(self.rho):
            raise RangeError(f"rho must be finite, got {self.rho}")
        object.__setattr__(self, "s0", reference_code(self.n, self.s0_seed))
        for p in self.patches:
            if not 0 <= p.range_bin <= self.n - 1:
                raise RangeError(f"range bin {p.range_bin} outside 0..{self.n - 1}")
            if any(not 1 <= f <= self.m for f in p.freqs):
                raise RangeError("frequency index outside 1..m")
            if not math.isfinite(p.power):
                raise RangeError(f"patch power must be finite, got {p.power}")


def reference_code(n: int, seed: int) -> np.ndarray:
    """Unit-modulus random-phase code, normalized to unit norm."""
    rng = np.random.default_rng(seed)
    code = np.exp(2j * np.pi * rng.random(n))
    return code / np.linalg.norm(code)


def default_scenario(n: int, rho: float = 30.0, s0_seed: int = 0) -> RadarScenario:
    """Two clutter patches at range bins 0 and 1 splitting the frequency band."""
    m = n
    half = (m + 1) // 2
    patches = (
        ClutterPatch(0, tuple(range(1, half + 1)), 1.0),
        ClutterPatch(1, tuple(range(half + 1, m + 1)), 1.0),
    )
    return RadarScenario(n=n, m=m, rho=rho, patches=patches, s0_seed=s0_seed)


def clutter_weight(scenario: RadarScenario, r: int, j: int) -> float:
    """rho(r, j): summed patch powers hitting range bin r and frequency j."""
    w = 0.0
    for p in scenario.patches:
        if p.range_bin == r and j in p.freqs:
            w += p.power / len(p.freqs)
    return w


def radar_tensor(scenario: RadarScenario) -> DenseTensor:
    """CPS tensor whose conjugate form is phi(s) - rho |s^H s0|^2 ||s||^2."""
    n, m = scenario.n, scenario.m
    forms = []
    for r in range(n):
        jr = shift_matrix(n, r)
        for j in range(1, m + 1):
            w = clutter_weight(scenario, r, j)
            if w > 0.0:
                p = steering(n, (j - 1) / m)
                forms.append(SesquiForm(w, jr @ np.diag(p)))
    # -rho |s^H s0|^2 ||s||^2 as sum_t -rho |conj(s)^T (s0 e_t^T) s|^2
    for t in range(n):
        b = np.zeros((n, n), dtype=complex)
        b[:, t] = scenario.s0
        forms.append(SesquiForm(-scenario.rho, b))
    return cps_from_sesqui_forms(forms, n)


def radar_objective(scenario: RadarScenario, s: np.ndarray) -> float:
    """Direct evaluation of phi(s) - rho |s^H s0|^2 ||s||^2 (test oracle path)."""
    s = np.asarray(s, dtype=complex)
    n, m = scenario.n, scenario.m
    total = 0.0
    for r in range(n):
        jr = shift_matrix(n, r)
        for j in range(1, m + 1):
            w = clutter_weight(scenario, r, j)
            if w > 0.0:
                p = steering(n, (j - 1) / m)
                total += w * abs(np.conj(s) @ (jr @ (s * p))) ** 2
    total -= scenario.rho * abs(np.conj(s) @ scenario.s0) ** 2 * np.linalg.norm(s) ** 2
    return float(total)


def random_cps(n: int, seed: int, d: int = 2) -> DenseTensor:
    """Random CPS tensor: i.i.d. standard normal real/imag parts, then the
    PS symmetrization average and the Hermitian part.  n must be an integer
    >= 2, d >= 1 and seed >= 0 (RangeError otherwise)."""
    r1._require_count(n, "n", 2)
    r1._require_count(d, "d", 1)
    r1._require_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    shape = (n,) * (2 * d)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return DenseTensor(n, 2 * d, rs.cps_part(w, d))


def random_symmetric(n: int, d: int, seed: int) -> DenseTensor:
    """Random symmetric order-d tensor: i.i.d. standard normal real/imag
    parts, then the average over all index permutations.  n and d must be
    integers >= 1 and seed >= 0 (RangeError otherwise)."""
    r1._require_count(n, "n", 1)
    r1._require_count(d, "d", 1)
    r1._require_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
    return tz.symmetrize_full(DenseTensor(n, d, w))


def us_lift(z: DenseTensor) -> DenseTensor:
    """CPS tensor Z (x) conj(Z); its conjugate form is |<Z, x^{ox d}>|^2."""
    if not tz.is_symmetric(z):
        raise NotSymmetric("US lift needs a symmetric tensor")
    w = np.multiply.outer(z.entries, np.conj(z.entries))
    return DenseTensor(z.n, 2 * z.order, w)


def symmetric_power_inner(z: DenseTensor, x: np.ndarray) -> complex:
    """<Z, x^{ox d}> = sum conj(Z_idx) x_{i_1} .. x_{i_d}."""
    power = tz._kron_powers(np.asarray(x, dtype=complex), z.order)[-1]
    return complex(np.vdot(z.entries.ravel(), power))


@dataclass
class UsEigenResult:
    value: float
    vector: np.ndarray
    report: SolveReport
    attempts: list = field(default_factory=list)


def us_eigen(
    z: DenseTensor,
    retries: int = 0,
    eps: float = 1e-4,
    seed: int = 0,
    *,
    max_iter: int = MAX_ITER,
) -> UsEigenResult:
    """Largest US-eigenvalue of a symmetric tensor via the CPS lift and SDP.

    On certification the recovered x is rotated by e^{-i theta/d} with
    theta = arg<Z, x^{ox d}> so the symmetric form at the result is real
    nonnegative; the US-eigenvalue is the nonnegative square root of the
    certified eigenpair's value, |<Z, x^{ox d}>|^2 at the returned x (of the
    perturbed Z for a retry), which does not carry the solver's error in
    <C, X>.  An uncertified solve of Z is retried up to `retries` times on
    Z + eps E / ||E||, E = random_symmetric(n, d, s) for s = seed,
    seed + 1, ...; distinct seeds may surface distinct eigenvectors of a
    degenerate maximum.  `attempts` logs each solve as
    (seed, certified, objective), seed None for Z itself.  Each solve is
    r1.solve_sdp's, with its max_iter.  An eps that is not a finite number
    >= 0 (a boolean is not), retries or seed that is not an integer >= 0,
    or max_iter that is not an integer >= 1, raises RangeError before any
    map evaluation.
    """
    real = isinstance(eps, numbers.Real) and not isinstance(eps, bool)
    if not (real and 0.0 <= eps < math.inf):
        raise RangeError(f"eps must be a finite number >= 0, got {eps!r}")
    r1._require_count(retries, "retries", 0)
    r1._require_count(seed, "seed", 0)
    log = []
    for s in [None, *range(seed, seed + retries)]:
        zp = z
        if s is not None and eps != 0.0:
            e = random_symmetric(z.n, z.order, s)
            zp = DenseTensor(z.n, z.order, z.entries + e.entries * (eps / e.norm()))
        report = r1.solve_sdp(r1.build_matrix_model(us_lift(zp)), max_iter=max_iter)
        log.append((s, report.certified, report.objective))
        if report.certified:
            lam, vec = _us_pair_from_report(zp, report)
            return UsEigenResult(lam, vec, report, log)
    raise Uncertified(f"no certified rank-one solution in {len(log)} attempts")


def _us_pair_from_report(z: DenseTensor, report: SolveReport) -> tuple[float, np.ndarray]:
    x = report.eigenpair.vector
    theta = np.angle(symmetric_power_inner(z, x))
    vec = np.exp(-1j * theta / z.order) * x
    lam = math.sqrt(max(report.eigenpair.value, 0.0))
    return lam, vec


def scenario_to_config(scenario: RadarScenario) -> dict:
    """The JSON config of a scenario; scenario_from_config inverts it."""
    return {
        "n": scenario.n,
        "m": scenario.m,
        "rho": scenario.rho,
        "patches": [
            {"r": p.range_bin, "delta": list(p.freqs), "sigma2": p.power}
            for p in scenario.patches
        ],
        "s0_seed": scenario.s0_seed,
    }


def scenario_from_config(cfg: dict) -> RadarScenario:
    """Build a scenario from the JSON config {n, m, rho, patches, s0_seed}."""
    patches = tuple(
        ClutterPatch(
            _json_int(p["r"], "r"),
            tuple(_json_int(f, "delta") for f in p["delta"]),
            _json_real(p["sigma2"], "sigma2"),
        )
        for p in cfg["patches"]
    )
    return RadarScenario(
        n=_json_int(cfg["n"], "n"),
        m=_json_int(cfg["m"], "m"),
        rho=_json_real(cfg["rho"], "rho"),
        patches=patches,
        s0_seed=_json_int(cfg.get("s0_seed", 0), "s0_seed"),
    )


def useig_benchmark(name: str) -> DenseTensor:
    """Two bundled order-3 symmetric benchmark instances from the
    entanglement literature (dimension 2)."""
    z = np.zeros((2, 2, 2), dtype=complex)
    if name == "a":
        z[0, 0, 0] = 2
        z[0, 0, 1] = z[0, 1, 0] = z[1, 0, 0] = 1
        z[0, 1, 1] = z[1, 0, 1] = z[1, 1, 0] = -1
        z[1, 1, 1] = 1
    elif name == "b":
        z[0, 0, 0] = 2
        z[0, 0, 1] = z[0, 1, 0] = z[1, 0, 0] = -1
        z[0, 1, 1] = z[1, 0, 1] = z[1, 1, 0] = -2
        z[1, 1, 1] = 1
    else:
        raise KeyError(f"unknown benchmark {name!r}; choose 'a' or 'b'")
    return DenseTensor(2, 3, z)

"""Output checks computed apart from the package.

Every check works on plain numpy arrays (the tensor entries, the returned
vector and value) with the benchmark's own einsum contractions; none calls a
cpstensor function, so a fault in the package cannot hide in its own check.
"""

from __future__ import annotations

import string

import numpy as np

REL_TOL = 1e-6  # eigen residual, form value and linear objective, relative to |lambda|
DECOMP_TOL = 1e-8  # reassembly error relative to ||T||
PROBES = 300  # random unit vectors a certified global maximum must dominate
PUBLISHED_TOL = 1e-3
PUBLISHED_US = {"a": 2.3547, "b": 3.1623}


class CheckFailed(Exception):
    """The program returned an output that is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def unit_probes(n: int, rng: np.random.Generator, count: int = PROBES) -> np.ndarray:
    """Rows are random complex unit vectors of length n."""
    x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _power_rows(xs: np.ndarray, d: int) -> np.ndarray:
    """Row p is the vectorized d-fold outer power of xs[p]."""
    u = xs
    for _ in range(d - 1):
        u = np.einsum("pi,pj->pij", u, xs).reshape(len(xs), -1)
    return u


def conj_form(entries: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """T(conj(x)^d x^d) for each row x of xs."""
    d = entries.ndim // 2
    big = entries.shape[0] ** d
    u = _power_rows(np.atleast_2d(xs), d)
    return np.einsum("pi,ij,pj->p", u.conj(), entries.reshape(big, big), u)


def eigen_map(entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T(. conj(x)^{d-1} x^d): mode 1 free, conj(x) on modes 2..d, x on d+1..2d."""
    d = entries.ndim // 2
    idx = string.ascii_lowercase[: 2 * d]
    spec = ",".join([idx] + list(idx[1:])) + "->" + idx[0]
    return np.einsum(spec, entries, *([x.conj()] * (d - 1) + [x] * d))


def check_rank_one(values: dict, rng: np.random.Generator) -> None:
    """A certified lifted solve returns the global maximum of the conjugate form."""
    t, lam, x = values["entries"], values["lam"], values["vector"]
    scale = max(abs(lam), 1e-300)
    _require(abs(np.linalg.norm(x) - 1.0) <= 1e-8, "returned vector is not unit")
    form = complex(conj_form(t, x)[0])
    _require(
        abs(form - lam) <= REL_TOL * scale,
        f"conjugate form {form:.10g} at the vector differs from lambda {lam:.10g}",
    )
    res = float(np.linalg.norm(eigen_map(t, x) - lam * x))
    _require(res <= REL_TOL * scale, f"eigen residual {res:.3e} above {REL_TOL} relative")
    gap = abs(values["linear_objective"] - lam)
    _require(gap <= REL_TOL * scale, f"linear objective misses lambda by {gap:.3e}")
    best = float(conj_form(t, unit_probes(t.shape[0], rng)).real.max())
    _require(best <= lam + REL_TOL * scale, f"a random unit vector reaches {best:.10g} > lambda")


def radar_objective(scenario, s: np.ndarray) -> float:
    """phi(s) - rho |s^H s0|^2 ||s||^2 evaluated from the scenario data.

    phi(s) = sum_{r, j} w(r, j) |s^H J_r (s o p_j)|^2 with J_r the down-shift by
    r, p_j the steering vector at normalized frequency (j-1)/m and w(r, j) the
    summed power of the clutter patches at range bin r covering frequency j.
    """
    n, m = scenario.n, scenario.m
    total = 0.0
    for r in range(n):
        for j in range(1, m + 1):
            w = sum(
                p.power / len(p.freqs)
                for p in scenario.patches
                if p.range_bin == r and j in p.freqs
            )
            if w == 0.0:
                continue
            v = s * np.exp(2j * np.pi * (j - 1) / m * np.arange(n))
            total += w * abs(np.vdot(s[r:], v[: n - r])) ** 2
    s0 = np.asarray(scenario.s0)
    total -= scenario.rho * abs(np.vdot(s, s0)) ** 2 * float(np.linalg.norm(s)) ** 2
    return float(total)


def check_radar(values: dict, rng: np.random.Generator) -> None:
    """The negated radar tensor's maximum is the minimum of the radar objective."""
    check_rank_one(values, rng)
    lam, s = values["lam"], values["vector"]
    got = radar_objective(values["scenario"], s)
    _require(
        abs(got + lam) <= REL_TOL * max(abs(lam), 1e-300),
        f"radar objective {got:.10g} at the code differs from -lambda {-lam:.10g}",
    )


def _sym_inner(z: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """<Z, x^{ox d}> = sum conj(Z_idx) x_{i_1} .. x_{i_d} for each row x of xs."""
    return _power_rows(np.atleast_2d(xs), z.ndim) @ z.reshape(-1).conj()


def check_us(values: dict, rng: np.random.Generator) -> None:
    """|<Z, x^{ox 3}>| equals the US-eigenvalue and dominates random unit vectors.

    A perturbed retry solved Z + E with ||E|| = eps, which moves |<Z, x^3>| at
    a unit x by at most eps; that slack is allowed on top of REL_TOL.
    """
    z, lam, x = values["entries"], values["lam"], values["vector"]
    slack = REL_TOL * max(abs(lam), 1e-300) + values["eps_used"]
    _require(abs(np.linalg.norm(x) - 1.0) <= 1e-8, "returned vector is not unit")
    got = float(abs(_sym_inner(z, x)[0]))
    _require(abs(got - lam) <= slack, f"|<Z, x^d>| = {got:.10g} differs from lambda {lam:.10g}")
    best = float(np.abs(_sym_inner(z, unit_probes(z.shape[0], rng))).max())
    _require(best <= lam + slack, f"a random unit vector reaches {best:.10g} > lambda")
    name = values.get("published")
    if name is not None:
        ref = PUBLISHED_US[name]
        _require(abs(lam - ref) <= PUBLISHED_TOL, f"instance {name}: {lam:.5f} vs published {ref}")


def check_decomposition(values: dict, rng: np.random.Generator) -> None:
    """Real coefficients, and the terms reassemble T within DECOMP_TOL * ||T||."""
    t, coeffs, vectors = values["entries"], values["coeffs"], values["vectors"]
    d = t.ndim // 2
    big = t.shape[0] ** d
    _require(len(coeffs) > 0, "no terms returned")
    _require(np.isrealobj(coeffs) and bool(np.all(np.isfinite(coeffs))), "coefficients are not real")
    p = _power_rows(vectors, d)
    recon = (p.conj().T * coeffs) @ p
    err = float(np.linalg.norm(recon - t.reshape(big, big)))
    norm = float(np.linalg.norm(t))
    _require(err <= DECOMP_TOL * norm, f"reassembly error {err:.3e} above {DECOMP_TOL} * ||T||")

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure.  Run `pytest tests/test_acceptance.py
-v -s` to see the lines as they complete."""

import itertools
import time

import numpy as np
import pytest

import cpstensor.applications as ap
import cpstensor.decompose as dc
import cpstensor.rank_one as r1
import cpstensor.reshaping as rs
import cpstensor.tensor as tz
from cpstensor.linalg import top_singular_ratio
import constructive as cn
from conftest import random_cps_tensor, random_unit


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def gap_tensor():
    e = np.zeros((2, 2, 2, 2), dtype=complex)
    e[0, 0, 1, 1] = 1
    e[1, 1, 0, 0] = 1
    return tz.DenseTensor(2, 4, e)


def test_criterion_01_decomposition_round_trip():
    worst = 0.0
    slowest = 0.0
    for k in range(50):
        n = 2 + (k % 2)
        t = random_cps_tensor(n, 1000 + k)
        t0 = time.perf_counter()
        terms = dc.cps_decompose(t)
        recon = tz.assemble(terms, t.n, 2)
        elapsed = time.perf_counter() - t0
        rel = np.linalg.norm(recon.entries - t.entries) / t.norm()
        worst = max(worst, rel)
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-8 and slowest < 10.0
    _report(1, ok, f"50 round trips, worst rel residual {worst:.2e}, slowest {slowest:.2f}s")


def test_criterion_02_hilbert_identity_both_parities():
    rng = np.random.default_rng(2)
    worst = 0.0
    for d in (2, 3):
        for r in (1, 2, 3):
            a = rng.standard_normal((r, 3)) + 1j * rng.standard_normal((r, 3))
            terms = cn.hilbert_terms(a, d)
            lams = np.array([t.coeff for t in terms])
            c = np.array([t.vector for t in terms])
            for _ in range(100):
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                target = abs(np.sum((a @ x) ** d)) ** 2
                got = float(np.sum(lams * np.abs(c @ x) ** (2 * d)))
                worst = max(worst, abs(got - target) / max(abs(target), 1e-30))
    _report(2, worst <= 1e-8, f"d in 2,3 / r in 1..3: worst rel error {worst:.2e}")


def test_criterion_03_gap_example_values():
    t = gap_tensor()
    sdp = r1.solve_sdp(r1.build_matrix_model(t))
    lam_ok = abs(sdp.objective - 0.5) <= 1e-3

    oracle = r1.brute_force_max_eig(t)
    pair = tz.EigenPair(oracle.value.real, oracle.vector)
    cps_err2 = r1.best_rank_one_error(t, pair) ** 2
    cps_ok = abs(cps_err2 - 7.0 / 4.0) <= 1e-2

    approx = np.zeros((2,) * 4, dtype=complex)
    approx[0, 0, 1, 1] = 1.0
    complex_err2 = float(np.linalg.norm(t.entries - approx) ** 2)
    complex_ok = complex_err2 == 1.0

    ok = lam_ok and cps_ok and complex_ok
    _report(
        3, ok,
        f"lambda={sdp.objective:.6f}, cps err^2={cps_err2:.6f}, complex err^2={complex_err2}",
    )


def test_criterion_04_matricization_counterexample():
    a = np.array([[1.0, 1.0 + 1.0j], [1.0 + 1.0j, 2.0]], dtype=complex)
    t = tz.DenseTensor(2, 4, np.multiply.outer(np.conj(a), a))
    std_ratio = top_singular_ratio(rs.matricize(t))
    can_ratio = top_singular_ratio(rs.matricize_pi(t, rs.canonical_pi(2)))

    # best rank-one CPS fit: error^2 = ||T||^2 - lambda*^2 at the two-sided max
    neg = tz.DenseTensor(2, 4, -t.entries)
    lam_star = max(
        abs(r1.brute_force_max_eig(t).value.real),
        abs(r1.brute_force_max_eig(neg).value.real),
    )
    best_rel = np.sqrt(t.norm() ** 2 - lam_star**2) / t.norm()

    ok = std_ratio <= 1e-10 and can_ratio > 0.1 and best_rel > 0.1
    _report(
        4, ok,
        f"standard ratio {std_ratio:.2e}, canonical ratio {can_ratio:.3f}, "
        f"best CPS rel error {best_rel:.3f}",
    )


def test_criterion_05_matricization_equivalence():
    rng = np.random.default_rng(5)
    worst_herm = worst_ratio = worst_extract = 0.0
    count = 0
    for d in (2, 3):
        pi = rs.canonical_pi(d)
        for k in range(100):
            n = 2 + (k % 3)  # n in {2, 3, 4}
            a = random_unit(n, rng)
            lam = float(rng.standard_normal()) or 1.0
            t = tz.rank_one_cps(lam, a, d)
            m = rs.matricize_pi(t, pi)
            worst_herm = max(
                worst_herm, np.linalg.norm(m - m.conj().T) / np.linalg.norm(m)
            )
            worst_ratio = max(worst_ratio, top_singular_ratio(m))
            vec, coeff = rs.extract_rank_one_vector(m, pi, n, d)
            recon = coeff * rs.matricize_pi(tz.rank_one_cps(1.0, vec, d), pi)
            worst_extract = max(
                worst_extract, np.linalg.norm(m - recon) / np.linalg.norm(m)
            )
            count += 1
    ok = worst_herm <= 1e-8 and worst_ratio <= 1e-8 and worst_extract <= 1e-8
    _report(
        5, ok,
        f"{count} rank-one tensors: hermitian {worst_herm:.2e}, "
        f"ratio {worst_ratio:.2e}, extraction {worst_extract:.2e}",
    )


def test_criterion_06_us_eigenvalue_first_benchmark():
    t0 = time.perf_counter()
    res = ap.us_eigen(ap.useig_benchmark("a"))
    elapsed = time.perf_counter() - t0
    ref = np.array([0.9726, 0.2326])
    align = np.vdot(ref, res.vector)
    dist = np.linalg.norm(
        res.vector * np.exp(-1j * np.angle(align)) - ref / np.linalg.norm(ref)
    )
    ok = abs(res.value - 2.3547) <= 1e-3 and dist <= 1e-3 and elapsed < 5.0
    _report(6, ok, f"lambda={res.value:.5f}, vector dist {dist:.2e}, {elapsed:.2f}s")


def test_criterion_07_us_eigenvalue_perturbed_benchmark():
    res = ap.us_eigen(ap.useig_benchmark("b"), retries=5, eps=1e-4, seed=0)
    published = [
        np.array([0.6987 + 0.1088j, -0.1088 + 0.6987j]),
        np.array([0.6987 - 0.1088j, -0.1088 - 0.6987j]),
        np.array([-0.2551 + 0.6595j, 0.6595 + 0.2551j]),
        np.array([-0.2551 - 0.6595j, 0.6595 - 0.2551j]),
    ]
    dists = []
    for ref in published:
        align = np.vdot(ref, res.vector)
        dists.append(
            np.linalg.norm(
                res.vector * np.exp(-1j * np.angle(align)) - ref / np.linalg.norm(ref)
            )
        )
    ok = abs(res.value - 3.1623) <= 1e-3 and min(dists) <= 2e-3
    _report(
        7, ok,
        f"lambda={res.value:.5f}, best vector dist {min(dists):.2e}, "
        f"attempts {len(res.attempts)}",
    )


def test_criterion_08_random_tensor_rates():
    rates = {}
    slowest = 0.0
    for n in (4, 6, 8):
        for method in ("sdp", "nuclear"):
            certified = 0
            for seed in range(20):
                t = ap.random_cps(n, 8000 + seed)
                model = r1.build_matrix_model(t)
                t0 = time.perf_counter()
                rep = (
                    r1.solve_sdp(model)
                    if method == "sdp"
                    else r1.solve_nuclear(model)
                )
                slowest = max(slowest, time.perf_counter() - t0)
                certified += rep.certified
            rates[(n, method)] = 100.0 * certified / 20.0
    ok = all(rate >= 95.0 for rate in rates.values()) and slowest < 60.0
    cells = ", ".join(f"n={n} {m}:{rate:.0f}%" for (n, m), rate in rates.items())
    _report(8, ok, f"{cells}; slowest instance {slowest:.1f}s")


def test_criterion_09_radar_rates():
    rates = {}
    for method in ("sdp", "nuclear"):
        certified = 0
        for seed in range(20):
            scenario = ap.default_scenario(5, rho=30.0, s0_seed=9000 + seed)
            t = ap.radar_tensor(scenario)
            neg = tz.DenseTensor(t.n, t.order, -t.entries)
            model = r1.build_matrix_model(neg)
            rep = (
                r1.solve_sdp(model) if method == "sdp" else r1.solve_nuclear(model)
            )
            certified += rep.certified
        rates[method] = 100.0 * certified / 20.0
    ok = all(rate >= 95.0 for rate in rates.values())
    _report(
        9, ok,
        f"radar n=5 rho=30: sdp {rates['sdp']:.0f}%, nuclear {rates['nuclear']:.0f}%",
    )


def test_criterion_10_oracle_agreement():
    worst_gap = 0.0
    worst_dom = np.inf
    certified = 0
    for seed in range(30):
        t = random_cps_tensor(2, 10000 + seed)
        rep = r1.solve_sdp(r1.build_matrix_model(t))
        oracle = r1.brute_force_max_eig(t).value.real
        worst_dom = min(worst_dom, rep.objective - oracle)
        if rep.certified:
            certified += 1
            worst_gap = max(worst_gap, abs(rep.eigenpair.value.real - oracle))
    ok = worst_gap <= 1e-3 and worst_dom >= -1e-6 and certified > 0
    _report(
        10, ok,
        f"{certified}/30 certified, worst |lambda - oracle| {worst_gap:.2e}, "
        f"min (objective - oracle) {worst_dom:.2e}",
    )


def test_criterion_11_structural_property_suite():
    rng = np.random.default_rng(11)
    failures = []
    for seed in range(100):
        n = 2 + (seed % 2)
        # random PS tensor and its CPS part
        w = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
        ps = tz.symmetrize_ps(tz.DenseTensor(n, 4, w))
        cps = tz.hermitian_part(ps)

        invol = tz.conj_transpose(tz.conj_transpose(ps))
        if not np.allclose(invol.entries, ps.entries, atol=1e-10):
            failures.append((seed, "involution"))

        u, v = tz.cartesian_split(ps)
        if not (tz.is_cps(u) and tz.is_cps(v)):
            failures.append((seed, "split parts not CPS"))
        if not np.allclose(u.entries + 1j * v.entries, ps.entries, atol=1e-10):
            failures.append((seed, "split reconstruction"))

        x = random_unit(n, rng)
        if abs(tz.conj_form_eval(cps, x).imag) > 1e-8 * max(cps.norm(), 1e-12):
            failures.append((seed, "form realness"))
        base = tz.conj_form_eval(cps, x)
        rotated = tz.conj_form_eval(cps, np.exp(1j * rng.uniform(0, 2 * np.pi)) * x)
        if abs(base - rotated) > 1e-8 * max(abs(base), 1e-12):
            failures.append((seed, "phase invariance"))

        raw = tz.DenseTensor(
            n, 4, rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
        )
        p = tz.symmetrize_ps(raw)
        pp = tz.symmetrize_ps(p)
        if not np.allclose(pp.entries, p.entries, atol=1e-10):
            failures.append((seed, "projector idempotence"))
        resid = tz.DenseTensor(n, 4, raw.entries - p.entries)
        if abs(tz.frob_inner(p, resid)) > 1e-10 * max(raw.norm() ** 2, 1e-12):
            failures.append((seed, "projector orthogonality"))
    ok = not failures
    _report(11, ok, f"100 seeds, {len(failures)} failures {failures[:3]}")

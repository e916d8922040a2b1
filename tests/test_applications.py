import dataclasses
import json

import numpy as np
import pytest

import cpstensor.applications as ap
import cpstensor.rank_one as r1
import cpstensor.tensor as tz
from cpstensor.errors import NotSymmetric, ParseError, RangeError, Uncertified
from conftest import random_unit


class TestShiftMatrix:
    def test_zero_shift_is_identity(self):
        assert np.allclose(ap.shift_matrix(4, 0), np.eye(4))

    def test_down_shift_action(self):
        j1 = ap.shift_matrix(3, 1)
        assert j1[1, 0] == 1 and j1[2, 1] == 1 and np.count_nonzero(j1) == 2
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(j1 @ v, [0.0, 1.0, 2.0])  # (J^1 v)_i = v_{i-1}

    def test_max_shift_single_entry(self):
        assert np.count_nonzero(ap.shift_matrix(5, 4)) == 1

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            ap.shift_matrix(3, 3)


class TestSteering:
    def test_zero_frequency(self):
        assert np.allclose(ap.steering(4, 0.0), np.ones(4))

    def test_half_frequency_alternates(self):
        assert np.allclose(ap.steering(4, 0.5), [1, -1, 1, -1])

    def test_unit_modulus(self):
        assert np.allclose(np.abs(ap.steering(6, 0.317)), 1.0)


class TestSesquiForms:
    def test_identity_form_is_norm_fourth(self):
        t = ap.cps_from_sesqui_forms([ap.SesquiForm(1.0, np.eye(3))], 3)
        rng = np.random.default_rng(0)
        s = random_unit(3, rng)
        assert tz.conj_form_eval(t, s).real == pytest.approx(1.0, abs=1e-10)

    def test_random_forms_match_direct_sum(self):
        rng = np.random.default_rng(1)
        forms = [
            ap.SesquiForm(
                rng.standard_normal(),
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            )
            for _ in range(4)
        ]
        t = ap.cps_from_sesqui_forms(forms, 3)
        for _ in range(100):
            s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            direct = sum(f.weight * abs(np.conj(s) @ f.matrix @ s) ** 2 for f in forms)
            got = tz.conj_form_eval(t, s).real
            assert abs(got - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_negative_weights_stay_cps(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = ap.cps_from_sesqui_forms([ap.SesquiForm(-2.5, b)], 2)
        assert tz.is_cps(t)


class TestRadar:
    def test_zero_penalty_form_nonnegative(self):
        scenario = ap.RadarScenario(
            n=4, m=4, rho=0.0,
            patches=(ap.ClutterPatch(0, (1, 2), 1.0),),
            s0_seed=0,
        )
        t = ap.radar_tensor(scenario)
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = random_unit(4, rng)
            assert tz.conj_form_eval(t, s).real >= -1e-10

    def test_form_matches_direct_objective(self):
        scenario = ap.default_scenario(5, s0_seed=1)
        t = ap.radar_tensor(scenario)
        assert tz.is_cps(t)
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            s /= np.linalg.norm(s)
            direct = ap.radar_objective(scenario, s)
            got = tz.conj_form_eval(t, s).real
            assert abs(got - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_minimization_via_negated_solve(self):
        scenario = ap.default_scenario(5, s0_seed=2)
        t = ap.radar_tensor(scenario)
        neg = tz.DenseTensor(t.n, t.order, -t.entries)
        report = r1.solve_sdp(r1.build_matrix_model(neg))
        assert report.certified
        s = report.eigenpair.vector
        # certified maximizer of -T is the minimizer of the radar objective
        val = ap.radar_objective(scenario, s)
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert val <= ap.radar_objective(scenario, random_unit(5, rng)) + 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 5, 9007])
    def test_config_round_trip(self, seed):
        scenario = ap.default_scenario(4, rho=12.5, s0_seed=seed)
        back = ap.scenario_from_config(json.loads(json.dumps(ap.scenario_to_config(scenario))))
        assert back == scenario
        assert np.array_equal(back.s0, ap.reference_code(4, seed))

    def test_empty_code_is_range_error(self):
        with pytest.raises(RangeError, match="at least 1"):
            ap.RadarScenario(n=0, m=2, rho=30.0, patches=(), s0_seed=0)

    @pytest.mark.parametrize(
        "key, value", [("n", 1e400), ("n", 3.5), ("m", 2.5), ("s0_seed", 1e400), ("r", 1e400),
                       ("delta", 1.5), ("n", True), ("m", "5"), ("s0_seed", False),
                       ("r", True), ("delta", "1")],
    )
    def test_config_integer_field_not_whole_is_parse_error(self, key, value):
        cfg = ap.scenario_to_config(ap.default_scenario(4, s0_seed=1))
        fields = cfg["patches"][0] if key in ("r", "delta") else cfg
        fields[key] = [value] if key == "delta" else value
        with pytest.raises(ParseError, match=f"{key} must be an integer, got"):
            ap.scenario_from_config(cfg)

    @pytest.mark.parametrize("key, value", [("rho", "30"), ("rho", True), ("sigma2", "1"),
                                            ("sigma2", None)])
    def test_config_real_field_not_a_number_is_parse_error(self, key, value):
        cfg = ap.scenario_to_config(ap.default_scenario(4, s0_seed=1))
        fields = cfg["patches"][0] if key == "sigma2" else cfg
        fields[key] = value
        with pytest.raises(ParseError, match=f"{key} must be a number, got"):
            ap.scenario_from_config(cfg)

    def test_reference_code_unit_modulus(self):
        s0 = ap.reference_code(6, 3)
        assert np.allclose(np.abs(s0), np.abs(s0[0]))
        assert np.linalg.norm(s0) == pytest.approx(1.0)


class TestRandomCps:
    def test_is_cps(self):
        assert tz.is_cps(ap.random_cps(4, 0))

    def test_deterministic(self):
        a = ap.random_cps(3, 7)
        b = ap.random_cps(3, 7)
        assert np.array_equal(a.entries, b.entries)

    def test_entry_statistics(self):
        # Monte-Carlo oracle for entry (1,1,1,2): after the PS average the
        # entry is a mean of two iid complex Gaussians (per-component variance
        # 1/2), and the Hermitian average with the independent (1,2,1,1)-class
        # entry halves the variance again, so per-component variance is 1/4
        # and E|entry| = 0.5 * sqrt(pi/2).
        vals = [abs(ap.random_cps(2, seed).entries[0, 0, 0, 1]) for seed in range(200)]
        expect = 0.5 * np.sqrt(np.pi / 2.0)
        sigma = np.sqrt((2.0 - np.pi / 2.0) * 0.25)
        assert abs(np.mean(vals) - expect) <= 3.0 * sigma / np.sqrt(200.0)


class TestUsLift:
    def test_rank_one_lift(self):
        rng = np.random.default_rng(8)
        a = random_unit(2, rng)
        z = tz.DenseTensor(2, 3, np.einsum("i,j,k->ijk", a, a, a))
        w = ap.us_lift(z)
        assert tz.is_cps(w)
        expect = tz.rank_one_cps(1.0, np.conj(a), 3)
        assert np.allclose(w.entries, expect.entries, atol=1e-12)

    def test_sampled_identity(self):
        rng = np.random.default_rng(9)
        z = ap.random_symmetric(3, 2, 9)
        w = ap.us_lift(z)
        assert tz.is_cps(w)
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            target = abs(ap.symmetric_power_inner(z, x)) ** 2
            got = tz.conj_form_eval(w, x).real
            assert abs(got - target) <= 1e-10 * max(target, 1.0)

    def test_requires_symmetric(self):
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        with pytest.raises(NotSymmetric):
            ap.us_lift(tz.DenseTensor(2, 3, raw))


class TestUsEigen:
    def test_benchmark_a(self):
        res = ap.us_eigen(ap.useig_benchmark("a"))
        assert res.value == pytest.approx(2.3547, abs=1e-3)
        ref = np.array([0.9726, 0.2326])
        align = np.vdot(ref, res.vector)
        dist = np.linalg.norm(res.vector * np.exp(-1j * np.angle(align)) - ref / np.linalg.norm(ref))
        assert dist <= 1e-3

    def test_rank_one_unit(self):
        rng = np.random.default_rng(11)
        a = random_unit(2, rng)
        z = tz.DenseTensor(2, 3, np.einsum("i,j,k->ijk", a, a, a))
        res = ap.us_eigen(z)
        assert res.value == pytest.approx(1.0, abs=1e-5)
        assert abs(ap.symmetric_power_inner(z, res.vector)) == pytest.approx(1.0, abs=1e-5)

    def test_phase_fix(self):
        res = ap.us_eigen(ap.useig_benchmark("a"))
        inner = ap.symmetric_power_inner(ap.useig_benchmark("a"), res.vector)
        assert inner.imag == pytest.approx(0.0, abs=1e-9)
        assert inner.real >= 0.0

    def test_lambda_squares_to_objective(self):
        # lambda^2 is the certified eigenpair's value; the ADMM objective
        # <C, X> carries the solver's error and agrees only to about 1e-7
        res = ap.us_eigen(ap.useig_benchmark("a"))
        assert res.value**2 == pytest.approx(res.report.eigenpair.value, rel=1e-12)
        assert res.value**2 == pytest.approx(res.report.objective, rel=1e-6)

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_value_exact_at_vector(self, n, seed):
        # the reported value is |<Z, x^3>| at the returned x, not sqrt(<C, X>)
        z = ap.random_symmetric(n, 3, seed)
        res = ap.us_eigen(z)
        inner = abs(ap.symmetric_power_inner(z, res.vector))
        assert res.value == pytest.approx(inner, rel=1e-12)


class TestPerturbAndRetry:
    def test_zero_eps_matches_direct(self):
        direct = ap.us_eigen(ap.useig_benchmark("a"))
        retried = ap.us_eigen(ap.useig_benchmark("a"), retries=1, eps=0.0)
        assert retried.value == pytest.approx(direct.value, abs=1e-12)

    def test_benchmark_b_certifies_unperturbed(self, monkeypatch):
        # b's maxima are degenerate: its lift's X has rank 2 at the stop, and
        # the check there reads a maximizer off X's top eigenspace.  A
        # perturbed retry solves a tensor with a single maximizer
        res = ap.us_eigen(ap.useig_benchmark("b"))
        assert res.value == pytest.approx(3.1623, abs=1e-3)
        # (None, certified, objective) for the unperturbed solve, then one
        # (seed + k, certified, objective) per perturbed attempt; the last certifies
        assert [(s, c) for s, c, _ in res.attempts] == [(None, True)]
        assert res.attempts[-1][2] == res.report.objective
        # the retry path: the unperturbed solve reads uncertified
        solve_sdp, calls = r1.solve_sdp, []

        def first_uncertified(*args, **kwargs):
            report = solve_sdp(*args, **kwargs)
            calls.append(report)
            return dataclasses.replace(report, certified=False) if len(calls) == 1 else report

        monkeypatch.setattr(r1, "solve_sdp", first_uncertified)
        retried = ap.us_eigen(ap.useig_benchmark("b"), retries=5, eps=1e-4, seed=0)
        assert [(s, c) for s, c, _ in retried.attempts] == [(None, False), (0, True)]
        assert retried.value == pytest.approx(3.1623, abs=1e-3)
        # lambda^2 is the certified eigenpair's value, and, on the lift of
        # the certified x, the objective <C, X>
        for r in (res, retried):
            assert r.value**2 == pytest.approx(r.report.eigenpair.value, rel=1e-12)
            assert r.value**2 == pytest.approx(r.report.objective, rel=1e-12)

    def test_perturbation_stability(self):
        base = ap.us_eigen(ap.useig_benchmark("a"))
        eps = 1e-4
        for seed in range(3):
            e = ap.random_symmetric(2, 3, 40 + seed)
            scaled = e.entries * (eps / e.norm())
            zp = tz.DenseTensor(2, 3, ap.useig_benchmark("a").entries + scaled)
            res = ap.us_eigen(zp)
            # C-eigenvalue continuity: lambda^2 moves at most ~||E||
            assert abs(res.value**2 - base.value**2) <= 10.0 * eps

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf"), True, "1e-4", None])
    def test_bad_eps_raises_before_any_solve(self, monkeypatch, eps):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking eps")

        monkeypatch.setattr(r1, "solve_sdp", no_solve)
        with pytest.raises(RangeError):
            ap.us_eigen(ap.useig_benchmark("a"), retries=3, eps=eps)

    @pytest.mark.parametrize(
        "options", [{"retries": -3}, {"retries": 1.5}, {"retries": True}, {"seed": -1}, {"seed": 0.5}]
    )
    def test_bad_retries_or_seed_raise_before_any_solve(self, monkeypatch, options):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking retries and seed")

        monkeypatch.setattr(r1, "solve_sdp", no_solve)
        with pytest.raises(RangeError):
            ap.us_eigen(ap.useig_benchmark("a"), **{"retries": 1, **options})

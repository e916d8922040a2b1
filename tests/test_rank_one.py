import dataclasses
import logging
import math

import numpy as np
import pytest

import cpstensor.applications as ap
import cpstensor.rank_one as r1
import cpstensor.reshaping as rs
import cpstensor.tensor as tz
from cpstensor.errors import BadPermutation, NotCps, NotUnit, RangeError, UnsupportedDimension
from conftest import random_cps_tensor, random_ps_tensor, random_unit

class TestBuildMatrixModel:
    def test_subspace_equalities(self):
        # for n = d = 2 and pi = (1,3,4,2) the matricized CPS subspace pins
        # X14 = X22 = X33 = X41, X12 = X31, X24 = X43 (1-based indices)
        t = random_cps_tensor(2, 0)
        x = rs.matricize_pi(t, (1, 3, 4, 2))
        assert x[0, 3] == pytest.approx(x[1, 1])
        assert x[1, 1] == pytest.approx(x[2, 2])
        assert x[2, 2] == pytest.approx(x[3, 0])
        assert x[0, 1] == pytest.approx(x[2, 0])
        assert x[1, 3] == pytest.approx(x[3, 2])

    def test_gap_tensor_hermitian_data(self, gap_tensor):
        model = r1.build_matrix_model(gap_tensor)
        assert np.allclose(model.C, model.C.conj().T)
        assert model.C.shape == (4, 4)

    def test_rank_one_input_gives_rank_one_data(self):
        rng = np.random.default_rng(1)
        t = tz.rank_one_cps(2.0, random_unit(2, rng), 2)
        model = r1.build_matrix_model(t)
        s = np.linalg.svd(model.C, compute_uv=False)
        assert s[1] / s[0] <= 1e-12

    def test_rejects_identity_permutation(self, gap_tensor):
        with pytest.raises(BadPermutation):
            r1.build_matrix_model(gap_tensor, (1, 2, 3, 4))

    def test_rejects_non_cps(self):
        with pytest.raises(NotCps):
            r1.build_matrix_model(random_ps_tensor(2, 2))


class TestProjectSubspace:
    # the orthogonal projector onto M_pi(CPS) at n = 2, d = 2, canonical pi
    project = staticmethod(rs.cps_projector(2, 2, rs.canonical_pi(2)))

    def test_fixed_point(self):
        x = rs.matricize_pi(random_cps_tensor(2, 3), rs.canonical_pi(2))
        assert np.allclose(self.project(x), x, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = 0.5 * (w + w.conj().T)
        p = self.project(x)
        assert np.allclose(self.project(p), p, atol=1e-12)

    @pytest.mark.parametrize("n,d,coords", [(3, 1, "X"), (2, 2, "X"), (2, 3, "X"), (2, 2, "Y")])
    def test_orthogonality(self, n, d, coords):
        # real-linear projector: self-adjoint in the real inner product
        # Re<a, b>, in X's coordinates and in the real Y = U^H X U at d = 2
        pi = rs.canonical_pi(d)
        project = rs.real_cps_projector(n, pi) if coords == "Y" else rs.cps_projector(n, d, pi)
        rng = np.random.default_rng(5)
        size = n**d
        a, b = (
            rng.standard_normal((size, size))
            + (0 if coords == "Y" else 1j * rng.standard_normal((size, size)))
            for _ in range(2)
        )
        assert abs(np.vdot(project(a), b).real - np.vdot(a, project(b)).real) <= 1e-13
        p = project(a)
        assert abs(np.vdot(p, a - p).real) <= 1e-13


class TestFlatLoop:
    def test_no_tensor_constructions_per_iteration(self, monkeypatch):
        # only the model build may construct tensors; the ADMM loop and its
        # bracket checks run on plain arrays, so the count does not grow with
        # the iteration count.  Both solves run to max_iter: their brackets
        # close after 790 (SDP) and 540 (nuclear) evaluations
        model = r1.build_matrix_model(ap.random_cps(11, 4))
        count = [0]
        post_init = tz.DenseTensor.__post_init__

        def counted(obj):
            count[0] += 1
            post_init(obj)

        monkeypatch.setattr(tz.DenseTensor, "__post_init__", counted)
        seen = {}
        for solve in (r1.solve_sdp, r1.solve_nuclear):
            for max_iter in (50, 500):
                count[0] = 0
                report = solve(model, max_iter=max_iter)
                assert report.iterations == max_iter
                seen[solve.__name__, max_iter] = count[0]
        assert seen["solve_sdp", 50] == seen["solve_sdp", 500]
        assert seen["solve_nuclear", 50] == seen["solve_nuclear", 500]


def _sdp_prox(w, beta):
    return r1._spectral_prox(w)


class TestCoordinates:
    def test_real_at_order_four(self):
        model = r1.build_matrix_model(random_cps_tensor(3, 22))
        u = model.frame
        assert model.c.dtype == model.p_eye.dtype == np.float64
        assert np.allclose(u @ model.c @ u.conj().T, model.C, atol=1e-14)
        assert np.array_equal(model.p_eye, model.project(np.eye(9)))
        assert model.c_norm == pytest.approx(np.linalg.norm(model.C, 2), rel=1e-14)
        with pytest.raises(dataclasses.FrozenInstanceError):  # built once per model
            model.c = model.C

    def test_complex_at_order_six(self):
        model = r1.build_matrix_model(random_cps_tensor(2, 23, d=3))
        assert model.frame is None
        assert model.c is model.C
        assert np.array_equal(model.p_eye, model.project(np.eye(8, dtype=complex)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_solves_do_not_project_the_identity(self, d):
        # P(I) is a field of the model: the loop and the dual bound read it
        model = r1.build_matrix_model(random_cps_tensor(3 if d == 2 else 2, 32, d=d))
        seen = []

        def project(x):
            seen.append(np.array_equal(x, np.eye(len(x))))
            return model.project(x)

        counted = dataclasses.replace(model, project=project)
        for solve in (r1.solve_sdp, r1.solve_nuclear):
            assert solve(counted).certified
        assert seen and not any(seen)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("solve", [r1.solve_sdp, r1.solve_nuclear])
    def test_order_two_lift_is_the_matrix(self, n, solve):
        # at order 2 (d = 1) the lift of T is the Hermitian matrix H itself,
        # and the largest C-eigenvalue is H's largest eigenvalue
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (w + w.conj().T)
            report = solve(r1.build_matrix_model(tz.DenseTensor(n, 2, h)))
            assert report.certified
            top = np.linalg.eigvalsh(h)[-1]
            assert abs(report.eigenpair.value.real - top) <= 1e-12 * abs(top)

    @pytest.mark.parametrize("nuclear", [False, True])
    def test_same_loop_in_both_coordinates(self, nuclear):
        # the one loop on X itself (U = I) and on real Y = U^H X U
        real = r1.build_matrix_model(random_cps_tensor(4, 24))
        project = rs.cps_projector(4, 2, real.pi)
        plain = dataclasses.replace(
            real, frame=None, c=real.C, project=project,
            p_eye=project(np.eye(16, dtype=complex)),
        )
        rho = real.c_norm
        prox = (lambda w, beta: r1._spectral_prox(w, rho / beta)) if nuclear else _sdp_prox
        a = r1._admm(plain, prox)
        b = r1._admm(real, prox)
        assert a.stop_reason == b.stop_reason == "gap"
        assert a.iterations == b.iterations
        assert a.beta_final == b.beta_final
        assert b.linear_objective == pytest.approx(a.linear_objective, rel=1e-12)
        assert np.max(np.abs(b.X - a.X)) <= 1e-9


class TestStopReason:
    def test_gap(self):
        report = r1.solve_sdp(r1.build_matrix_model(random_cps_tensor(3, 25)))
        assert report.stop_reason == "gap" and report.converged
        assert report.beta_final > 0
        assert report.to_dict()["stop_reason"] == "gap"
        assert report.to_dict()["beta_final"] == report.beta_final

    @pytest.mark.parametrize(
        "options", [{"max_iter": 0}, {"max_iter": -5}, {"max_iter": 2.5}, {"max_iter": True}]
    )
    def test_bad_options_raise(self, monkeypatch, options):
        # the range the CLI's --max-iter checks, at the library edge, before
        # any map evaluation
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated before checking max_iter")

        monkeypatch.setattr(r1, "_spectral_prox", no_evaluation)
        model = r1.build_matrix_model(random_cps_tensor(3, 25))
        z = ap.useig_benchmark("a")
        for solve in (
            lambda: r1.solve_sdp(model, **options),
            lambda: r1.solve_nuclear(model, **options),
            lambda: ap.us_eigen(z, retries=1, **options),
        ):
            with pytest.raises(RangeError, match="max_iter"):
                solve()

    @pytest.mark.parametrize("d", [2, 3])
    def test_tol_before_the_first_check_certifies(self, d):
        # at n = 1 the lift is the 1 x 1 matrix [1]: both solves reach
        # SOLVER_TOL before the first bracket check, and the check at the
        # stop certifies them
        t = random_cps_tensor(1, 0, d=d)
        model = r1.build_matrix_model(t)
        for solve, evaluations in ((r1.solve_sdp, 1), (r1.solve_nuclear, 5)):
            report = solve(model)
            assert report.stop_reason == "tol" and report.iterations == evaluations
            assert report.certified and report.certificate == "bracket"
            assert report.rank_one_ratio == 0.0
            assert report.eigenpair.value == pytest.approx(t.entries.real.item(), rel=1e-12)
            assert report.optimality_gap <= r1.GAP_TOL

    def test_zero_tensor(self):
        # T = 0: every unit x is a C-eigenvector with value 0, so the bracket
        # [0, 0] is closed before any evaluation
        report = r1.solve_sdp(r1.build_matrix_model(tz.zero(2, 4)))
        assert (report.iterations, report.stop_reason) == (0, "gap")
        assert report.certified and report.certificate == "bracket"
        assert report.eigenpair.value == 0.0

    @pytest.mark.parametrize("nuclear", [False, True])
    def test_zero_tensor_order_six(self, nuclear):
        # the order-6 solves used to stop uncertified: the SDP on tol after
        # 1 evaluation, the nuclear one on max_iter.  The report is the lift
        # of x = e_1
        model = r1.build_matrix_model(tz.zero(2, 6))
        report = r1.solve_nuclear(model, rho=1.0) if nuclear else r1.solve_sdp(model)
        assert (report.iterations, report.stop_reason) == (0, "gap")
        assert report.certified and report.certificate == "bracket"
        assert report.eigenpair.value == 0.0 and report.optimality_gap == 0.0
        assert np.array_equal(report.eigenpair.vector, [1.0, 0.0])
        assert np.array_equal(report.X, rs._rank_one_lift(report.eigenpair.vector, model.pi, model.d))
        assert report.objective == (-1.0 if nuclear else 0.0)

    @pytest.mark.parametrize("order", [4, 6])
    def test_zero_tensor_default_rho(self, order):
        # the default rho = ||C||_2 is +0.0, not -0.0: the error names it and
        # asks for rho, which the caller never passed; an explicit rho
        # certifies
        model = r1.build_matrix_model(tz.zero(2, order))
        assert model.c_norm == 0.0 and math.copysign(1.0, model.c_norm) == 1.0
        with pytest.raises(RangeError, match=r"\|\|C\|\|_2 = 0.*rho"):
            r1.solve_nuclear(model)
        report = r1.solve_nuclear(model, rho=1.0, max_iter=20)
        assert report.certified and report.objective == -1.0

    def test_zero_maximum_certifies(self):
        # the largest C-eigenvalue is exactly 0: the form -|<a, x>|^4 of
        # T = -(a's rank-one term) is maximized by every x orthogonal to a.
        # The gap is relative to max(|L|, 1e-3 ||C||_2), not to |L| = 0
        a = np.array([1.0, 1j, 0.5])
        model = r1.build_matrix_model(tz.rank_one_cps(-1.0, a / np.linalg.norm(a), 2))
        for report, evaluations in ((r1.solve_sdp(model), 20), (r1.solve_nuclear(model), 33)):
            assert (report.iterations, report.stop_reason) == (evaluations, "gap")
            assert report.certified and report.certificate == "bracket"
            assert abs(report.eigenpair.value) <= 1e-12
            assert report.optimality_gap <= r1.GAP_TOL

    def test_max_iter(self):
        # the cap falls before the first bracket check, which closes this
        # bracket after 5 evaluations
        model = r1.build_matrix_model(random_cps_tensor(3, 25))
        report = r1.solve_nuclear(model, max_iter=4)
        assert report.stop_reason == "max_iter" and not report.converged
        assert report.iterations == 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_finite(self, d):
        # a NaN stops the loop at once instead of running to max_iter
        model = r1.build_matrix_model(random_cps_tensor(2, 26, d=d))
        report = r1._admm(model, lambda w, beta: np.full_like(w, np.nan))
        assert report.stop_reason == "non-finite" and not report.converged
        assert report.iterations == 1


class TestEvaluations:
    def _counted_prox(self, monkeypatch):
        calls = [0]
        prox = r1._spectral_prox

        def counted(w, tau=None):
            calls[0] += 1
            return prox(w, tau)

        monkeypatch.setattr(r1, "_spectral_prox", counted)
        return calls

    @pytest.mark.parametrize("d", [2, 3])
    def test_iterations_count_prox_calls(self, monkeypatch, d, gap_tensor):
        # one prox (one eigh) per map evaluation, rejected extrapolations
        # included, over a whole solve to tol: the maxima of the gap tensor
        # and of benchmark b's order-6 lift are degenerate, so their brackets
        # do not close and their solves run to tol (8/8 and 18/21 evaluations)
        t = gap_tensor if d == 2 else ap.us_lift(ap.useig_benchmark("b"))
        model = r1.build_matrix_model(t)
        calls = self._counted_prox(monkeypatch)
        for solve in (r1.solve_sdp, r1.solve_nuclear):
            calls[0] = 0
            report = solve(model)
            assert report.stop_reason == "tol"
            assert report.iterations == calls[0]

    def test_bracket_checks_are_not_evaluations(self, monkeypatch):
        model = r1.build_matrix_model(random_cps_tensor(3, 31))
        calls = self._counted_prox(monkeypatch)
        for solve in (r1.solve_sdp, r1.solve_nuclear):
            calls[0] = 0
            report = solve(model)
            assert report.stop_reason == "gap"
            assert report.iterations == calls[0]

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_max_iter_caps_evaluations(self, monkeypatch, k):
        # this bracket closes after 131 evaluations (random_cps_tensor(3, 31)
        # closes it after 5)
        model = r1.build_matrix_model(ap.random_cps(9, 5))
        calls = self._counted_prox(monkeypatch)
        report = r1.solve_sdp(model, max_iter=k)
        assert calls[0] == report.iterations == k
        assert report.stop_reason == "max_iter"

    def test_stall_stops_on_the_bracket(self):
        # b + 1e-4 E / ||E||, E = random_symmetric(2, 3, 0), drifts along a
        # flat face at a residual constant to round-off: the plain loop took
        # 3747 evaluations and the accelerated one 3790 to reach tol; its
        # bracket closes after 20
        b, e = ap.useig_benchmark("b"), ap.random_symmetric(2, 3, 0)
        z = tz.DenseTensor(2, 3, b.entries + e.entries * (1e-4 / e.norm()))
        report = r1.solve_sdp(r1.build_matrix_model(ap.us_lift(z)))
        assert report.certified
        assert report.stop_reason == "gap"
        assert report.iterations <= 60


class TestDivergence:
    def test_unbounded_nuclear_model_stops(self):
        # rho = 0.05 ||C||_2 leaves the model unbounded; the loop used to run
        # all 10 000 evaluations and return an objective of about 6e5
        model = r1.build_matrix_model(ap.random_cps(4, 8000))
        report = r1.solve_nuclear(model, rho=0.05 * model.c_norm)
        assert report.stop_reason == "diverged"
        assert not report.converged and not report.certified
        assert report.iterations < 1000
        assert np.linalg.norm(report.X) > r1.DIVERGED_NORM / 10

    def test_small_rho_warns(self, caplog):
        model = r1.build_matrix_model(ap.random_cps(4, 8000))
        c_norm = model.c_norm
        with caplog.at_level(logging.WARNING, logger="cpstensor"):
            r1.solve_nuclear(model, rho=c_norm)
            assert not caplog.records
            report = r1.solve_nuclear(model, rho=0.05 * c_norm)
        assert report.stop_reason == "diverged"
        [record] = caplog.records
        assert record.name == "cpstensor.rank_one" and record.levelno == logging.WARNING
        assert "below ||C||_2" in record.getMessage()

    def test_bounded_penalty_unaffected(self):
        # TestSolveNuclear's rho = 1.25 case sits just above the bound lam / 2
        rng = np.random.default_rng(9)
        t = tz.rank_one_cps(2.0, random_unit(2, rng), 2)
        report = r1.solve_nuclear(r1.build_matrix_model(t), rho=1.25)
        assert report.stop_reason == "gap" and report.certified


class TestOptimalityGap:
    @pytest.mark.parametrize("seed", range(10000, 10005))
    def test_oracle_between_lambda_and_bound(self, seed):
        # criterion 10's n = 2 instances: the grid oracle lies in [lambda, U]
        t = random_cps_tensor(2, seed)
        report = r1.solve_sdp(r1.build_matrix_model(t))
        assert report.certified
        lam = report.eigenpair.value
        bound = lam + report.optimality_gap * abs(lam)
        oracle = r1.brute_force_max_eig(t).value.real
        assert lam - 1e-8 <= oracle <= bound + 1e-12
        assert abs(report.optimality_gap) <= r1.GAP_TOL
        assert report.to_dict()["optimality_gap"] == report.optimality_gap

    @pytest.mark.parametrize("d", [2, 3])
    def test_nuclear_bound_tight(self, d):
        model = r1.build_matrix_model(random_cps_tensor(3 if d == 2 else 2, 32, d=d))
        report = r1.solve_nuclear(model)
        assert report.certified
        assert abs(report.optimality_gap) <= r1.GAP_TOL

    def test_bound_holds_without_convergence(self):
        # any multiplier gives a valid bound; it is loose far from the optimum
        model = r1.build_matrix_model(random_cps_tensor(3, 33))
        report = r1.solve_sdp(model)
        for u in (np.zeros_like(model.c), report.multiplier + 0.1):
            assert r1._top_eigenvalue(r1._dual_matrix(model, u)) >= report.eigenpair.value - 1e-12

    US_LIFTS = {"us_a": ap.useig_benchmark("a"), "us_random": ap.random_symmetric(2, 3, 1)}

    @pytest.mark.parametrize("case", ["n2", "us_a", "us_random"])
    def test_completed_bound_holds_for_any_candidate(self, case):
        # lambda_max(C - W - D) bounds the maximum for every Hermitian D
        # orthogonal to M_pi(CPS), so the completed bound holds whatever the
        # multiplier and however far the candidate is from an eigenvector
        t = random_cps_tensor(2, 35) if case == "n2" else ap.us_lift(self.US_LIFTS[case])
        model = r1.build_matrix_model(t)
        oracle = r1.brute_force_max_eig(t).value.real
        final = r1.solve_sdp(model).multiplier
        rng = np.random.default_rng(35)
        noise = rng.standard_normal(final.shape)
        if np.iscomplexobj(final):
            noise = noise + 1j * rng.standard_normal(final.shape)
        noise = noise + noise.conj().T
        for u in (np.zeros_like(final), final + 0.1, noise):
            dual = r1._dual_matrix(model, u)
            for _ in range(5):
                bound = r1._completed_bound(model, dual, random_unit(2, rng))
                assert bound >= oracle - 1e-12 * abs(oracle)

    def test_nan_when_uncertified(self):
        model = r1.build_matrix_model(random_cps_tensor(3, 34))
        report = r1.solve_sdp(model, max_iter=3)
        assert not report.certified
        assert np.isnan(report.optimality_gap)


def _radar_model(s0_seed):
    t = ap.radar_tensor(ap.default_scenario(5, rho=30.0, s0_seed=s0_seed))
    return r1.build_matrix_model(tz.DenseTensor(t.n, t.order, -t.entries))


class TestBracketCertificate:
    CASES = {
        "n4": lambda: r1.build_matrix_model(ap.random_cps(4, 8003)),
        "n8": lambda: r1.build_matrix_model(ap.random_cps(8, 8001)),
        "order6": lambda: r1.build_matrix_model(ap.us_lift(ap.random_symmetric(3, 3, 0))),
        "radar": lambda: _radar_model(9016),
        "bench_a": lambda: r1.build_matrix_model(ap.us_lift(ap.useig_benchmark("a"))),
    }

    @pytest.mark.parametrize(
        "case,nuclear", [(c, False) for c in CASES] + [(c, True) for c in CASES]
    )
    def test_lift_is_feasible_and_optimal(self, case, nuclear):
        # the order-6 SDP solves (order6, bench_a) close only with the
        # completed dual; the multiplier's own bound missed L by 9.9e-10 and
        # 6.6e-10 relative at tol
        model = self.CASES[case]()
        report = r1.solve_nuclear(model) if nuclear else r1.solve_sdp(model)
        assert report.stop_reason == "gap" and report.converged
        assert report.certified and report.certificate == "bracket"
        assert report.to_dict()["certificate"] == "bracket"
        x = report.X
        assert np.max(np.abs(x - x.conj().T)) <= 1e-12
        assert abs(np.trace(x).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(x).min() >= -1e-12
        assert np.max(np.abs(rs.cps_projector(model.n, model.d, model.pi)(x) - x)) <= 1e-12
        assert report.rank_one_ratio == 0.0
        lam = report.eigenpair.value
        assert report.linear_objective == pytest.approx(lam, rel=1e-12)
        expected = lam - report.rho if nuclear else lam
        assert report.objective == pytest.approx(expected, rel=1e-12)
        assert report.eigen_res <= r1.EIG_TOL * max(1.0, model.tensor.norm())
        assert 0.0 <= report.optimality_gap <= r1.GAP_TOL
        # the multiplier's own bound, computed to a few ulps like L
        bound = r1._top_eigenvalue(r1._dual_matrix(model, report.multiplier))
        assert bound >= lam - 1e-14 * abs(lam)

    def test_nuclear_default_rho_certifies(self):
        # at the default rho this solve ended uncertified after 249
        # evaluations: X stayed 9.1e-6 from rank one and the multiplier's
        # bound 1e-9 to 3e-8 above L
        model = r1.build_matrix_model(random_cps_tensor(3, 25))
        report = r1.solve_nuclear(model)
        assert report.certified and report.certificate == "bracket"
        assert report.iterations <= 20
        assert report.optimality_gap <= r1.GAP_TOL
        sdp = r1.solve_sdp(model)
        assert report.eigenpair.value == pytest.approx(sdp.eigenpair.value, rel=1e-12)

    def test_degenerate_maximum_closes_at_the_stop(self, gap_tensor):
        # the gap tensor's maximizers form a family and X has rank > 1: the
        # candidate read off its top eigenvector closes no bracket at the
        # check after 5 passes, and those read off its top eigenspace at a
        # max_iter stop do.  Both solves stop on tol after 8 evaluations
        model = r1.build_matrix_model(gap_tensor)
        for solve, cap in ((r1.solve_sdp, 7), (r1.solve_nuclear, 7)):
            report = solve(model, max_iter=cap)
            assert report.stop_reason == "max_iter" and not report.converged
            assert report.iterations == cap
            assert report.certified and report.certificate == "bracket"
            assert report.eigenpair.value == pytest.approx(0.5, rel=1e-12)
            assert report.to_dict()["certificate"] == "bracket"

    SCALES = (1e-12, 1e-6, 1.0, 1e6)
    CASES_DEGENERATE = {"gap": (0.5, SCALES), "bench_b": (10.0, SCALES)}

    @pytest.mark.parametrize("case", CASES_DEGENERATE)
    @pytest.mark.parametrize("nuclear", [False, True])
    def test_degenerate_maximum_certifies_across_scales(self, case, nuclear, gap_tensor):
        # two maximizers or more: X has rank 2 at the stop, and its top
        # eigenvector mixes them (it polishes to 5 on benchmark b's lift)
        t = gap_tensor if case == "gap" else ap.us_lift(ap.useig_benchmark("b"))
        lam, scales = self.CASES_DEGENERATE[case]
        for scale in scales:
            model = r1.build_matrix_model(tz.DenseTensor(t.n, t.order, scale * t.entries))
            report = r1.solve_nuclear(model) if nuclear else r1.solve_sdp(model)
            assert report.stop_reason == "tol"
            assert report.certified and report.certificate == "bracket"
            assert report.eigenpair.value / scale == pytest.approx(lam, rel=1e-12)
            assert report.optimality_gap <= r1.GAP_TOL


class TestSpectralCalls:
    def test_one_norm_and_one_eigendecomposition(self, monkeypatch):
        # ||C||_2 once per model, when it is built, from C's eigenvalues
        # (no vectors, no spectral-norm SVD).  Each bracket check takes
        # one top eigenpair of the loop's X, and the top eigenvalue for the
        # dual bound once its candidate passes the eigen tests, and one more
        # for a completed bound.  The check at a tol or max_iter stop takes
        # X's top 4 eigenpairs instead of one; an uncertified nuclear solve
        # takes all eigenvalues of X, for ||X||_*.  No solve takes a full
        # eigendecomposition, in the loop or through reshaping
        n = 4
        big = n * n
        calls = []

        def counted(name, fn, square_only=False):
            def wrapper(a, *args, **kwargs):
                if not square_only or np.shape(a) == (big, big):
                    if name != "norm" or (args[:1] or (kwargs.get("ord"),))[0] == 2:
                        calls.append(name)
                return fn(a, *args, **kwargs)

            return wrapper

        eigh = r1._eigh

        def kernel(h, select="A", vectors=True, **bounds):
            if len(h) == 2 * n - 2:  # a polish step's Hessian
                pass
            elif select == "I" and bounds["iu"] == len(h):
                top = bounds["iu"] - bounds["il"] + 1
                if top > 1:
                    calls.append(f"top {top} eigenpairs")
                else:
                    calls.append("top eigenpair" if vectors else "top eigenvalue")
            else:
                calls.append(f"eigh {select}")
            return eigh(h, select, vectors, **bounds)

        monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd, True))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(r1, "_eigh", kernel)
        monkeypatch.setattr(rs, "_eigh", kernel)
        model = r1.build_matrix_model(random_cps_tensor(n, 11))
        assert calls == ["eigh A"]
        # the candidate fails the eigen tests at the first check (after 5
        # passes); at the next, the plain bound misses GAP_TOL and the
        # completed one closes the bracket
        for solve in (r1.solve_nuclear, r1.solve_sdp):
            calls.clear()
            assert solve(model).certificate == "bracket"
            assert calls == ["top eigenpair"] * 2 + ["top eigenvalue"] * 2
        # stopped on max_iter before the first check: no candidate read at
        # the stop passes the eigen tests, so no dual bound is computed
        calls.clear()
        assert not r1.solve_sdp(model, max_iter=4).certified
        assert calls == ["top 4 eigenpairs"]
        calls.clear()
        assert not r1.solve_nuclear(model, max_iter=4).certified
        assert calls == ["top 4 eigenpairs", "eigh A"]


class TestCertificateScale:
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_scaled_tensor_certifies(self, scale):
        # the eigen residual grows with T (1.2e-6 at scale 100, SDP), so the
        # certificate's tolerance grows with ||T||_F
        t = ap.random_cps(4, 8000)
        scaled = tz.DenseTensor(t.n, t.order, scale * t.entries)
        for solve in (r1.solve_sdp, r1.solve_nuclear):
            ref = solve(r1.build_matrix_model(t))
            report = solve(r1.build_matrix_model(scaled))
            assert ref.certified and report.certified
            assert report.eigenpair.value / scale == pytest.approx(ref.eigenpair.value, rel=1e-9)

    def test_stop_does_not_depend_on_scale(self):
        # every test of a bracket check is relative to ||T||_F or to its own
        # system, and the bracket closes before the residual stop (an
        # absolute tol once stopped the loop at scales 1e-4 and below)
        t = ap.random_cps(4, 8000)
        for solve, evaluations in ((r1.solve_sdp, 5), (r1.solve_nuclear, 5)):
            ref = solve(r1.build_matrix_model(t))
            for scale in (1e-12, 1e-8, 1e-4, 1e2, 1e4, 1e6):
                scaled = tz.DenseTensor(t.n, t.order, scale * t.entries)
                report = solve(r1.build_matrix_model(scaled))
                assert report.iterations == ref.iterations == evaluations
                lam = report.eigenpair.value / scale
                assert lam == pytest.approx(ref.eigenpair.value, rel=1e-12)
        # benchmark b's order-6 lift runs to its tol stop (its maximum is
        # degenerate), which a penalty that started at ||C||_2 reached after
        # 20, 20, 18 and 20 evaluations.  Its nuclear lift still takes 20,
        # 20, 18 and 18: the rebalancing rule compares the primal residual
        # with the dual one, which grows with T
        b = ap.us_lift(ap.useig_benchmark("b"))
        for scale in (1e-12, 1e-6, 1.0, 1e6):
            report = r1.solve_sdp(r1.build_matrix_model(tz.DenseTensor(b.n, b.order, scale * b.entries)))
            assert (report.iterations, report.stop_reason) == (19, "tol")
            assert report.certified


class TestPinnedIterates:
    # random tensors of acceptance criterion 8, default options; map
    # evaluations of the accelerated loop with its bracket check (CHANGES.md
    # has the counts of the earlier loops)
    @staticmethod
    def check(n, seed, sdp_iters, nuclear_iters):
        model = r1.build_matrix_model(ap.random_cps(n, seed))
        sdp = r1.solve_sdp(model)
        nuclear = r1.solve_nuclear(model)
        assert (sdp.iterations, nuclear.iterations) == (sdp_iters, nuclear_iters)
        assert sdp.certified and nuclear.certified

    @pytest.mark.parametrize(
        "seed,sdp_iters,nuclear_iters",
        [(8000, 5, 5), (8001, 5, 5), (8002, 5, 5), (8003, 10, 10)],
        ids=["8000", "8001", "8002", "8003"],
    )
    def test_iterations(self, seed, sdp_iters, nuclear_iters):
        self.check(4, seed, sdp_iters, nuclear_iters)

    @pytest.mark.parametrize(
        "seed,sdp_iters,nuclear_iters",
        [(8000, 30, 30), (8001, 20, 20)],
        ids=["8000", "8001"],
    )
    def test_iterations_at_n8(self, seed, sdp_iters, nuclear_iters):
        self.check(8, seed, sdp_iters, nuclear_iters)


    @pytest.mark.parametrize(
        "name,iters,stop",
        [("a", 5, "gap"), ("b", 19, "tol"), ("n2", 10, "gap"), ("n3", 20, "gap")],
    )
    def test_order_six_us_eigen(self, name, iters, stop):
        # the lifts run the conjugate-form kernel at d = 3; b's degenerate
        # maximum certifies at its tol stop
        z = ap.random_symmetric(int(name[1]), 3, 0) if name[0] == "n" else ap.useig_benchmark(name)
        res = ap.us_eigen(z)
        report = res.report
        assert (report.iterations, report.stop_reason, report.certificate) == (iters, stop, "bracket")
        assert len(res.attempts) == 1

    @pytest.mark.parametrize(
        "n,seed,solve,iters",
        [(9, 2, r1.solve_sdp, 35), (11, 4, r1.solve_nuclear, 540), (12, 0, r1.solve_sdp, 45)],
        ids=["n9-2-sdp", "n11-4-nuclear", "n12-0-sdp"],
    )
    def test_tight_at_large_n(self, n, seed, solve, iters):
        # tight relaxations whose brackets close after many evaluations: a
        # residual stop at an absolute 1e-7 ended the first two uncertified
        # (after 210 and 392 evaluations).  A penalty that started at
        # ||C||_2 took 250, 431 and 205
        report = solve(r1.build_matrix_model(ap.random_cps(n, seed)))
        assert (report.iterations, report.stop_reason, report.certificate) == (iters, "gap", "bracket")

    @pytest.mark.parametrize(
        "seed,iters,stop", [(8, 5, "gap"), (9, 10, "gap"), (23, 5, "gap"), (12, 42, "tol")]
    )
    def test_order_six_at_n2(self, seed, iters, stop):
        # an absolute 1e-7 on the residuals stopped the SDP solves of seeds 8,
        # 9 and 23 uncertified after 31, 27 and 30 evaluations; seed 12's
        # certifies at its tol stop
        report = r1.solve_sdp(r1.build_matrix_model(random_cps_tensor(2, seed, d=3)))
        assert (report.iterations, report.stop_reason, report.certificate) == (iters, stop, "bracket")

    @pytest.mark.parametrize("s0_seed", [9000, 9008])
    def test_radar(self, s0_seed):
        t = ap.radar_tensor(ap.default_scenario(5, rho=30.0, s0_seed=s0_seed))
        model = r1.build_matrix_model(tz.DenseTensor(t.n, t.order, -t.entries))
        sdp, nuclear = r1.solve_sdp(model), r1.solve_nuclear(model)
        assert (sdp.iterations, nuclear.iterations) == (5, 12)
        assert sdp.certified and nuclear.certified


class TestComplement:
    @pytest.mark.parametrize(
        "x",
        [
            np.array([1.0 + 0j]),
            np.array([0.6, 0.8j]),
            np.array([0.0, 1.0 + 0j]),
            np.array([0.0, 0.6, 0.0, -0.8j]),
            random_unit(4, np.random.default_rng(3)),
            random_unit(5, np.random.default_rng(4)),
        ],
        ids=["n1", "n2", "n2_x0_zero", "n4_x0_zero", "n4", "n5"],
    )
    def test_orthonormal_and_orthogonal_to_x(self, x):
        q = r1._complement(x)
        n = len(x)
        assert q.shape == (n, n - 1)
        assert np.allclose(q.conj().T @ q, np.eye(n - 1), rtol=0, atol=1e-15)
        assert np.allclose(q.conj().T @ x, 0.0, rtol=0, atol=1e-15)


class TestPolish:
    @staticmethod
    def polish(t, x):
        form = tz._ConjForm(t)
        start = form.at(x)
        vec, g, value = r1._polish(form, start)
        return form, start, vec, g, value

    @pytest.mark.parametrize("case", ["rank_one", "gap"])
    def test_reaches_an_eigenpair_from_nearby(self, case, gap_tensor):
        rng = np.random.default_rng(5)
        if case == "gap":
            t, target = gap_tensor, np.array([1.0, 1.0]) / np.sqrt(2.0)
        else:
            a = random_unit(4, rng)
            t, target = tz.rank_one_cps(1.5, a, 2), np.conj(a)
        x = target + 1e-3 * random_unit(len(target), rng)
        form, _, vec, g, value = self.polish(t, x / np.linalg.norm(x))
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15
        assert np.linalg.norm(g - value.real * vec) <= r1.POLISH_TOL * t.norm()
        assert r1.eigen_residual(t, tz.EigenPair(value.real, vec)) <= r1.POLISH_TOL * t.norm()
        assert value.real == pytest.approx(0.5 if case == "gap" else 1.5, rel=1e-14)

    @pytest.mark.parametrize("n,d", [(2, 1), (4, 1), (2, 2), (4, 2), (2, 3), (3, 3)])
    def test_form_never_falls(self, n, d):
        for seed in range(5):
            t = random_cps_tensor(n, 90 + seed, d)
            x = random_unit(n, np.random.default_rng(seed))
            _, start, vec, g, value = self.polish(t, x)
            lower = start.value.real
            assert value.real >= lower - r1.POLISH_TOL * abs(lower)
            # the returned g is the partial map at the returned, phase-fixed x
            assert np.allclose(g, tz.partial_map(t, vec), rtol=0, atol=1e-13 * t.norm())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 3), (4, 1)])
    def test_n1_and_order_two(self, n, d):
        # n = 1 leaves no complement, and every unit x is an eigenvector; at
        # order 2 B = 0, and from near the top eigenvector of M the polish
        # reaches it
        t = random_cps_tensor(n, 7, d)
        rng = np.random.default_rng(8)
        x = np.linalg.eigh(t.entries)[1][:, -1] + 1e-3 * random_unit(n, rng) if d == 1 else random_unit(n, rng)
        _, start, vec, g, value = self.polish(t, x / np.linalg.norm(x))
        assert np.linalg.norm(g - value.real * vec) <= r1.POLISH_TOL * t.norm()
        if n == 1:
            assert vec[0] == pytest.approx(1.0, abs=1e-15)
            assert value == pytest.approx(start.value, rel=1e-15)
        else:
            assert value.real == pytest.approx(np.linalg.eigvalsh(t.entries)[-1], rel=1e-14)


class TestSolveSdp:
    def test_gap_tensor_objective(self, gap_tensor):
        report = r1.solve_sdp(r1.build_matrix_model(gap_tensor))
        assert report.objective == pytest.approx(0.5, abs=1e-3)

    def test_rank_one_input_certified(self):
        rng = np.random.default_rng(6)
        a = random_unit(3, rng)
        t = tz.rank_one_cps(1.5, a, 2)
        report = r1.solve_sdp(r1.build_matrix_model(t))
        assert report.certified
        assert report.objective == pytest.approx(1.5, abs=1e-5)
        pair = report.eigenpair
        assert pair.value.real == pytest.approx(1.5, abs=1e-5)
        # recovered eigenvector matches the conjugated term vector up to phase
        align = np.vdot(pair.vector, np.conj(a))
        assert abs(abs(align) - 1.0) <= 1e-5

    def test_feasibility_at_termination(self):
        t = random_cps_tensor(3, 7)
        model = r1.build_matrix_model(t)
        report = r1.solve_sdp(model)
        x = report.X
        assert abs(np.trace(x).real - 1.0) <= 1e-7
        assert np.linalg.norm(x - rs.cps_projector(model.n, model.d, model.pi)(x)) <= 1e-7
        # ||X - Y|| <= tol at termination and Y is PSD, so lambda_min(X) >= -tol
        assert np.linalg.eigvalsh(0.5 * (x + x.conj().T)).min() >= -1e-7

    def test_random_certified(self):
        report = r1.solve_sdp(r1.build_matrix_model(random_cps_tensor(4, 8)))
        assert report.certified
        assert report.eigen_res <= 1e-6


class TestSolveNuclear:
    def test_rank_one_input_penalized_objective(self):
        rng = np.random.default_rng(9)
        a = random_unit(2, rng)
        lam = 2.0
        t = tz.rank_one_cps(lam, a, 2)
        # boundedness of the penalized model needs rho >= lam/2 here; below
        # that threshold a traceless feasible ray has positive slope
        rho = 1.25
        report = r1.solve_nuclear(r1.build_matrix_model(t), rho=rho)
        assert report.certified
        assert report.objective == pytest.approx(lam - rho, abs=1e-4)
        assert report.eigenpair.value.real == pytest.approx(lam, abs=1e-5)

    def test_random_certified_agrees_with_sdp(self):
        t = random_cps_tensor(4, 10)
        model = r1.build_matrix_model(t)
        sdp = r1.solve_sdp(model)
        nuc = r1.solve_nuclear(model)
        assert sdp.certified and nuc.certified
        assert nuc.eigenpair.value.real == pytest.approx(
            sdp.eigenpair.value.real, abs=1e-4
        )

    def test_rho_must_be_positive(self, gap_tensor):
        with pytest.raises(RangeError):
            r1.solve_nuclear(r1.build_matrix_model(gap_tensor), rho=0.0)


def _final_check(model, x, lam=None):
    """The check at a stop (_BracketCheck.final) of a matrix X of M_pi(CPS),
    with the optimal multiplier u = C - lam I (then W = 0 and the plain bound
    is lambda_max(C)), or a zero one without lam."""
    y = x if model.frame is None else (model.frame.conj().T @ x @ model.frame).real
    u = np.zeros_like(y) if lam is None else model.c - lam * np.eye(len(y))
    return r1._BracketCheck(model).final(y, u)


class TestCertifyAndRecover:
    # certification and recovery at a tol or max_iter stop: the last
    # bracket check, whose candidates are read off X's top eigenspace, and
    # the report _admm builds from it

    def test_exact_rank_one_certifies(self):
        rng = np.random.default_rng(11)
        a = random_unit(2, rng)
        t = tz.rank_one_cps(1.0, np.conj(a), 2)  # eigenvector of t is a
        model = r1.build_matrix_model(t)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), model.pi)
        bracket, ratio = _final_check(model, x, lam=1.0)
        assert bracket is not None and bracket.gap <= r1.GAP_TOL
        assert bracket.pair.value == pytest.approx(1.0, rel=1e-12)
        assert abs(abs(np.vdot(bracket.pair.vector, a)) - 1.0) <= 1e-12
        assert ratio <= 1e-12

    def test_one_eigendecomposition(self, monkeypatch):
        # the candidates and the rank-one ratio share one eigendecomposition
        # of X, of its top pairs alone
        calls = []
        eigh = r1._eigh

        def kernel(h, select="A", vectors=True, **bounds):
            if len(h) == 9 and vectors:
                calls.append((select, bounds))
            return eigh(h, select, vectors, **bounds)

        monkeypatch.setattr(r1, "_eigh", kernel)
        rng = np.random.default_rng(13)
        a = random_unit(3, rng)
        model = r1.build_matrix_model(tz.rank_one_cps(1.0, np.conj(a), 2))
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), model.pi)
        assert _final_check(model, x, lam=1.0)[0] is not None
        assert calls == [("I", {"il": 6, "iu": 9})]

    def test_no_tensor_constructions(self, monkeypatch):
        # the check works on the plain matrix X and the model's arrays
        rng = np.random.default_rng(14)
        a = random_unit(3, rng)
        model = r1.build_matrix_model(tz.rank_one_cps(1.0, np.conj(a), 2))
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), model.pi)
        count = [0]
        post_init = tz.DenseTensor.__post_init__

        def counted(obj):
            count[0] += 1
            post_init(obj)

        monkeypatch.setattr(tz.DenseTensor, "__post_init__", counted)
        assert _final_check(model, x, lam=1.0)[0] is not None
        assert count[0] == 0

    def test_one_projector_build_per_solve(self, gap_tensor):
        # a bracket certificate, its dual completion included, has no
        # subspace test: neither a check in the loop nor the one at the stop
        # builds a projector
        for t, stop in ((ap.random_cps(4, 8000), "gap"), (gap_tensor, "tol")):
            model = r1.build_matrix_model(t)
            rs.cps_projector.cache_clear()
            report = r1.solve_nuclear(model)
            assert (report.stop_reason, report.certificate) == (stop, "bracket")
            assert rs.cps_projector.cache_info().misses == 0

    def test_real_eigendecomposition_at_order_four(self, monkeypatch, gap_tensor):
        # d = 2 reads its candidates off the real U^H X U, and the report's X
        # is the lift of the certified x
        seen = []
        eigh = r1._eigh
        monkeypatch.setattr(r1, "_eigh", lambda h, *args, **kw: seen.append(h.dtype) or eigh(h, *args, **kw))
        model = r1.build_matrix_model(gap_tensor)
        report = r1.solve_sdp(model)
        assert (report.stop_reason, report.certificate) == ("tol", "bracket")
        assert set(seen) == {np.dtype(np.float64)}
        vec, lam = rs.extract_rank_one_vector(report.X, model.pi, model.n, model.d)
        assert np.max(np.abs(report.eigenpair.vector - vec)) <= 1e-12
        assert lam == pytest.approx(1.0, rel=1e-12)

    def test_identity_not_certified(self, gap_tensor):
        # a zero multiplier's bound is loose
        bracket, ratio = _final_check(r1.build_matrix_model(gap_tensor), np.eye(4) / 4.0)
        assert bracket is None
        assert ratio == pytest.approx(1.0)

    def test_tiny_perturbation_still_certifies(self):
        rng = np.random.default_rng(12)
        a = random_unit(3, rng)
        t = tz.rank_one_cps(1.0, a, 2)  # eigenvector of t is conj(a)
        model = r1.build_matrix_model(t)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, np.conj(a), 2), model.pi)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        noise = 0.5 * (noise + noise.conj().T)
        x = x + 1e-8 * noise / np.linalg.norm(noise)
        bracket, _ = _final_check(model, x, lam=1.0)
        assert bracket is not None
        assert bracket.pair.value == pytest.approx(1.0, rel=1e-12)


class TestEigenResidual:
    def test_rank_one_pair_exact(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam0 = -0.8
        t = tz.rank_one_cps(lam0, a, 2)
        pair = tz.EigenPair(lam0 * np.linalg.norm(a) ** 4, np.conj(a) / np.linalg.norm(a))
        assert r1.eigen_residual(t, pair) <= 1e-10

    def test_zero_tensor(self):
        pair = tz.EigenPair(0.0, np.array([1.0, 0.0], dtype=complex))
        assert r1.eigen_residual(tz.zero(2, 4), pair) == 0.0

    def test_matches_direct_contraction(self):
        rng = np.random.default_rng(14)
        t = random_cps_tensor(3, 14)
        x = random_unit(3, rng)
        lam = 0.3
        direct = np.linalg.norm(tz.partial_map(t, x) - lam * x)
        assert r1.eigen_residual(t, tz.EigenPair(lam, x)) == pytest.approx(direct)

    def test_not_unit(self):
        with pytest.raises(NotUnit):
            r1.eigen_residual(tz.zero(2, 4), tz.EigenPair(0.0, np.array([1.0, 1.0])))


class TestBestRankOneError:
    def test_gap_tensor_at_maximizer(self, gap_tensor):
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        pair = tz.EigenPair(0.5, x)
        assert r1.best_rank_one_error(gap_tensor, pair) ** 2 == pytest.approx(1.75, abs=1e-10)

    def test_complex_rank_one_gap(self, gap_tensor):
        # the unstructured rank-one e1 x e1 x e2 x e2 sits strictly closer
        approx = np.zeros((2,) * 4, dtype=complex)
        approx[0, 0, 1, 1] = 1.0
        err2 = np.linalg.norm(gap_tensor.entries - approx) ** 2
        assert err2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_error_at_itself(self):
        rng = np.random.default_rng(15)
        a = random_unit(2, rng)
        t = tz.rank_one_cps(0.7, a, 2)
        assert r1.best_rank_one_error(t, tz.EigenPair(0.7, np.conj(a))) <= 1e-12

    def test_pythagoras_identity(self):
        t = random_cps_tensor(2, 16)
        report = r1.solve_sdp(r1.build_matrix_model(t))
        assert report.certified
        pair = report.eigenpair
        err2 = r1.best_rank_one_error(t, pair) ** 2
        assert err2 == pytest.approx(t.norm() ** 2 - pair.value.real ** 2, abs=1e-6)


class TestBruteForce:
    def test_gap_tensor(self, gap_tensor):
        pair = r1.brute_force_max_eig(gap_tensor)
        assert pair.value.real == pytest.approx(0.5, abs=1e-6)
        mods = np.abs(pair.vector)
        assert np.allclose(mods, [1 / np.sqrt(2)] * 2, atol=1e-3)

    def test_rank_one_scaled(self):
        rng = np.random.default_rng(17)
        a = 1.3 * random_unit(2, rng)
        t = tz.rank_one_cps(2.0, a, 2)
        pair = r1.brute_force_max_eig(t)
        assert pair.value.real == pytest.approx(2.0 * np.linalg.norm(a) ** 4, rel=1e-6)

    def test_sign_symmetry(self):
        t = random_cps_tensor(2, 18)
        neg = tz.DenseTensor(2, 4, -t.entries)
        plus = r1.brute_force_max_eig(t).value.real
        minus = r1.brute_force_max_eig(neg).value.real
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = random_unit(2, rng)
            val = tz.conj_form_eval(t, x).real
            assert -minus - 1e-6 <= val <= plus + 1e-6

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            r1.brute_force_max_eig(random_cps_tensor(3, 19))


class TestRealOptimalCoefficient:
    def test_no_complex_coefficient_improves(self):
        # at a certified maximizer, sampling complex coefficients never beats
        # the real eigenvalue fit beyond numerical slack
        t = random_cps_tensor(2, 20)
        report = r1.solve_sdp(r1.build_matrix_model(t))
        assert report.certified
        x = report.eigenpair.vector
        base = r1.best_rank_one_error(t, report.eigenpair) ** 2
        rng = np.random.default_rng(20)
        approx = tz.rank_one_cps(1.0, np.conj(x), 2).entries
        for _ in range(100):
            lam = report.eigenpair.value.real + 0.1 * (
                rng.standard_normal() + 1j * rng.standard_normal()
            )
            err2 = np.linalg.norm(t.entries - lam * approx) ** 2
            assert err2 >= base - 1e-9

import numpy as np
import pytest

import cpstensor.applications as ap
import cpstensor.rank_one as r1
import cpstensor.reshaping as rs
import cpstensor.tensor as tz
from cpstensor.errors import BadPermutation, NotCps, NotUnit, UnsupportedDimension
from conftest import random_cps_tensor, random_ps_tensor, random_unit

FAST = r1.SolverOptions()


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
    def test_fixed_point(self):
        t = random_cps_tensor(2, 3)
        model = r1.build_matrix_model(t)
        x = rs.matricize_pi(t, model.pi)
        assert np.allclose(r1.project_cps_subspace(x, model), x, atol=1e-12)

    def test_idempotent(self):
        model = r1.build_matrix_model(random_cps_tensor(2, 4))
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = 0.5 * (w + w.conj().T)
        p = r1.project_cps_subspace(x, model)
        assert np.allclose(r1.project_cps_subspace(p, model), p, atol=1e-12)

    def test_orthogonality(self):
        # real-linear projector: orthogonality holds in the real inner product
        model = r1.build_matrix_model(random_cps_tensor(2, 5))
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = 0.5 * (w + w.conj().T)
        p = r1.project_cps_subspace(x, model)
        assert abs(np.vdot(p, x - p).real) <= 1e-12


class TestFlatLoop:
    def test_no_tensor_constructions_per_iteration(self, monkeypatch):
        # only the model build may construct tensors; the ADMM loop runs on
        # plain arrays, so the count does not grow with the iteration count
        model = r1.build_matrix_model(random_cps_tensor(3, 21))
        monkeypatch.setattr(r1, "certify_and_recover", lambda report, model: report)
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
                report = solve(model, opts=r1.SolverOptions(tol=0.0, max_iter=max_iter))
                assert report.iterations == max_iter
                seen[solve.__name__, max_iter] = count[0]
        assert seen["solve_sdp", 50] == seen["solve_sdp", 500]
        assert seen["solve_nuclear", 50] == seen["solve_nuclear", 500]


def _sdp_prox(w, beta):
    return r1._spectral_prox(w)


class TestCoordinates:
    def test_real_at_order_four(self):
        model = r1.build_matrix_model(random_cps_tensor(3, 22))
        coords = model.coordinates
        assert coords.c.dtype == np.float64
        assert np.allclose(coords.u @ coords.c @ coords.u.conj().T, model.C, atol=1e-14)
        assert model.coordinates is coords  # built once per model

    def test_complex_at_order_six(self):
        model = r1.build_matrix_model(random_cps_tensor(2, 23, d=3))
        assert model.coordinates.u is None
        assert model.coordinates.c is model.C

    @pytest.mark.parametrize("nuclear", [False, True])
    def test_same_loop_in_both_coordinates(self, nuclear):
        # the one loop on X itself (U = I) and on real Y = U^H X U
        model = r1.build_matrix_model(random_cps_tensor(4, 24))
        real = model.coordinates
        plain = r1.Coordinates(None, model.C, rs.cps_projector(4, 2, model.pi), real.c_norm)
        rho = real.c_norm
        prox = (lambda w, beta: r1._spectral_prox(w, rho / beta)) if nuclear else _sdp_prox
        a = r1._admm(plain, prox, FAST)
        b = r1._admm(real, prox, FAST)
        assert a.stop_reason == b.stop_reason == "tol"
        assert a.iterations == b.iterations
        assert a.beta_final == b.beta_final
        assert b.linear_objective == pytest.approx(a.linear_objective, rel=1e-12)
        assert np.max(np.abs(b.X - a.X)) <= 1e-9


class TestStopReason:
    def test_tol(self):
        report = r1.solve_sdp(r1.build_matrix_model(random_cps_tensor(3, 25)), FAST)
        assert report.stop_reason == "tol" and report.converged
        assert report.beta_final > 0
        assert report.to_dict()["stop_reason"] == "tol"
        assert report.to_dict()["beta_final"] == report.beta_final

    def test_max_iter(self):
        model = r1.build_matrix_model(random_cps_tensor(3, 25))
        report = r1.solve_nuclear(model, opts=r1.SolverOptions(tol=1e-7, max_iter=7))
        assert report.stop_reason == "max_iter" and not report.converged
        assert report.iterations == 7

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_finite(self, d):
        # a NaN stops the loop at once instead of running to max_iter
        model = r1.build_matrix_model(random_cps_tensor(2, 26, d=d))
        report = r1._admm(model.coordinates, lambda w, beta: np.full_like(w, np.nan), FAST)
        assert report.stop_reason == "non-finite" and not report.converged
        assert report.iterations == 1


class TestSpectralCalls:
    def test_one_norm_and_one_eigendecomposition(self, monkeypatch):
        # ||C||_2 once per model; ||X||_* from the certificate's herm_eig
        model = r1.build_matrix_model(random_cps_tensor(4, 27))
        big = model.size
        calls = []

        def counted(name, fn, square_only=False):
            def wrapper(a, *args, **kwargs):
                if not square_only or np.shape(a) == (big, big):
                    if name != "norm" or (args[:1] or (kwargs.get("ord"),))[0] == 2:
                        calls.append(name)
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd, True))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        herm_eig = counted("herm_eig", r1.herm_eig)
        monkeypatch.setattr(r1, "herm_eig", herm_eig)
        monkeypatch.setattr(rs, "herm_eig", herm_eig)
        assert r1.solve_nuclear(model, opts=FAST).certified
        assert sorted(calls) == ["herm_eig", "norm"]
        calls.clear()
        assert r1.solve_sdp(model, FAST).certified
        assert calls == ["herm_eig"]


class TestPinnedIterates:
    # random n=4 tensors of acceptance criterion 8, default options
    @pytest.mark.parametrize(
        "seed,sdp_iters,nuclear_iters",
        [(8000, 255, 257), (8001, 408, 352), (8002, 317, 282), (8003, 386, 390)],
    )
    def test_iterations(self, seed, sdp_iters, nuclear_iters):
        model = r1.build_matrix_model(ap.random_cps(4, seed))
        sdp = r1.solve_sdp(model)
        nuclear = r1.solve_nuclear(model)
        assert (sdp.iterations, nuclear.iterations) == (sdp_iters, nuclear_iters)
        assert sdp.certified and nuclear.certified


class TestSolveSdp:
    def test_gap_tensor_objective(self, gap_tensor):
        report = r1.solve_sdp(r1.build_matrix_model(gap_tensor), FAST)
        assert report.objective == pytest.approx(0.5, abs=1e-3)

    def test_rank_one_input_certified(self):
        rng = np.random.default_rng(6)
        a = random_unit(3, rng)
        t = tz.rank_one_cps(1.5, a, 2)
        report = r1.solve_sdp(r1.build_matrix_model(t), FAST)
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
        report = r1.solve_sdp(model, FAST)
        x = report.X
        assert abs(np.trace(x).real - 1.0) <= 1e-7
        assert np.linalg.norm(x - r1.project_cps_subspace(x, model)) <= 1e-7
        # ||X - Y|| <= tol at termination and Y is PSD, so lambda_min(X) >= -tol
        assert np.linalg.eigvalsh(0.5 * (x + x.conj().T)).min() >= -1e-7

    def test_random_certified(self):
        report = r1.solve_sdp(r1.build_matrix_model(random_cps_tensor(4, 8)), FAST)
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
        report = r1.solve_nuclear(r1.build_matrix_model(t), rho=rho, opts=FAST)
        assert report.certified
        assert report.objective == pytest.approx(lam - rho, abs=1e-4)
        assert report.eigenpair.value.real == pytest.approx(lam, abs=1e-5)

    def test_random_certified_agrees_with_sdp(self):
        t = random_cps_tensor(4, 10)
        model = r1.build_matrix_model(t)
        sdp = r1.solve_sdp(model, FAST)
        nuc = r1.solve_nuclear(model, opts=FAST)
        assert sdp.certified and nuc.certified
        assert nuc.eigenpair.value.real == pytest.approx(
            sdp.eigenpair.value.real, abs=1e-4
        )

    def test_rho_must_be_positive(self, gap_tensor):
        with pytest.raises(ValueError):
            r1.solve_nuclear(r1.build_matrix_model(gap_tensor), rho=0.0)


class TestCertifyAndRecover:
    def test_exact_rank_one_certifies(self):
        rng = np.random.default_rng(11)
        a = random_unit(2, rng)
        t = tz.rank_one_cps(1.0, np.conj(a), 2)  # eigenvector of t is a
        model = r1.build_matrix_model(t)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), model.pi)
        report = r1.SolveReport(
            X=x, objective=1.0, linear_objective=1.0, primal_residual=0.0,
            dual_residual=0.0, iterations=0, converged=True,
        )
        report = r1.certify_and_recover(report, model)
        assert report.certified
        assert report.eigenpair.value.real == pytest.approx(1.0, abs=1e-10)

    def test_one_eigendecomposition(self, monkeypatch):
        # the certificate and the extraction share one herm_eig of X
        calls = []
        herm_eig = r1.herm_eig
        counted = lambda x: calls.append(1) or herm_eig(x)  # noqa: E731
        monkeypatch.setattr(r1, "herm_eig", counted)
        monkeypatch.setattr(rs, "herm_eig", counted)
        rng = np.random.default_rng(13)
        a = random_unit(3, rng)
        model = r1.build_matrix_model(tz.rank_one_cps(1.0, np.conj(a), 2))
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), model.pi)
        report = r1.SolveReport(
            X=x, objective=1.0, linear_objective=1.0, primal_residual=0.0,
            dual_residual=0.0, iterations=0, converged=True,
        )
        assert r1.certify_and_recover(report, model).certified
        assert len(calls) == 1

    def test_no_tensor_constructions(self, monkeypatch):
        # certification works on the plain matrix X and the model's arrays
        rng = np.random.default_rng(14)
        a = random_unit(3, rng)
        model = r1.build_matrix_model(tz.rank_one_cps(1.0, np.conj(a), 2))
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), model.pi)
        report = r1.SolveReport(
            X=x, objective=1.0, linear_objective=1.0, primal_residual=0.0,
            dual_residual=0.0, iterations=0, converged=True,
        )
        count = [0]
        post_init = tz.DenseTensor.__post_init__

        def counted(obj):
            count[0] += 1
            post_init(obj)

        monkeypatch.setattr(tz.DenseTensor, "__post_init__", counted)
        assert r1.certify_and_recover(report, model).certified
        assert count[0] == 0

    def test_one_projector_build_per_solve(self):
        # the solve and the certificate's subspace test share one kernel
        model = r1.build_matrix_model(random_cps_tensor(4, 8))
        rs.cps_projector.cache_clear()
        assert r1.solve_sdp(model, FAST).certified
        assert rs.cps_projector.cache_info().misses == 1

    def test_identity_not_certified(self, gap_tensor):
        model = r1.build_matrix_model(gap_tensor)
        x = np.eye(4, dtype=complex) / 4.0
        report = r1.SolveReport(
            X=x, objective=0.0, linear_objective=0.0, primal_residual=0.0,
            dual_residual=0.0, iterations=0, converged=True,
        )
        report = r1.certify_and_recover(report, model)
        assert not report.certified
        assert report.rank_one_ratio == pytest.approx(1.0)

    def test_tiny_perturbation_still_certifies(self):
        rng = np.random.default_rng(12)
        a = random_unit(3, rng)
        t = tz.rank_one_cps(1.0, a, 2)  # eigenvector of t is conj(a)
        model = r1.build_matrix_model(t)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, np.conj(a), 2), model.pi)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        noise = 0.5 * (noise + noise.conj().T)
        x = x + 1e-8 * noise / np.linalg.norm(noise)
        report = r1.SolveReport(
            X=x, objective=1.0, linear_objective=1.0, primal_residual=0.0,
            dual_residual=0.0, iterations=0, converged=True,
        )
        report = r1.certify_and_recover(report, model)
        assert report.certified


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
        report = r1.solve_sdp(r1.build_matrix_model(t), FAST)
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
        report = r1.solve_sdp(r1.build_matrix_model(t), FAST)
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

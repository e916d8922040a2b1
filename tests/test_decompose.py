import logging
import math

import numpy as np
import pytest

import cpstensor.decompose as dc
import cpstensor.reshaping as rs
import cpstensor.tensor as tz
from cpstensor.errors import (
    NotCps,
    NotSymmetric,
    ResidualTooLarge,
    TermBudgetExceeded,
)
from conftest import random_cps_tensor, random_ps_tensor, random_unit


def random_symmetric(n, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
    return tz.symmetrize_full(tz.DenseTensor(n, d, w))


class TestSpectralSplit:
    def test_rank_one_single_positive_term(self):
        rng = np.random.default_rng(0)
        a = random_unit(2, rng)
        t = tz.rank_one_cps(1.0, a, 2)
        terms = dc.spectral_split(t)
        assert len(terms) == 1
        sign, z = terms[0]
        assert sign == 1
        # conj(Z) (x) Z = T forces Z proportional to the d-fold power of a
        expect = np.multiply.outer(a, a)
        align = np.vdot(z.entries.reshape(-1), expect.reshape(-1))
        assert abs(abs(align) - z.norm() * np.linalg.norm(expect)) <= 1e-10

    def test_gap_tensor_sign_pair(self, gap_tensor):
        signs = sorted(s for s, _ in dc.spectral_split(gap_tensor))
        assert signs == [-1, 1]

    def test_reconstruction(self):
        t = random_cps_tensor(2, 1)
        acc = np.zeros_like(t.entries)
        for sign, z in dc.spectral_split(t):
            acc += sign * np.multiply.outer(np.conj(z.entries), z.entries)
        assert np.linalg.norm(acc - t.entries) <= 1e-10 * t.norm()

    def test_eigenvectors_symmetric(self):
        for seed in range(3):
            t = random_cps_tensor(3, 10 + seed)
            for _, z in dc.spectral_split(t):
                assert tz.is_symmetric(z)

    def test_requires_cps(self):
        with pytest.raises(NotCps):
            dc.spectral_split(random_ps_tensor(2, 2))


class TestTakagi:
    def test_reconstruction_and_orthonormal(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = 0.5 * (z + z.T)
            sig, u = dc.takagi(z)
            recon = (u * sig) @ u.T
            assert np.linalg.norm(recon - z) <= 1e-10 * np.linalg.norm(z)
            assert np.allclose(u.conj().T @ u, np.eye(len(sig)), atol=1e-10)
            assert np.all(sig > 0)

    def test_degenerate_spectrum(self):
        sig, u = dc.takagi(np.eye(3, dtype=complex))
        recon = (u * sig) @ u.T
        assert np.allclose(recon, np.eye(3), atol=1e-10)


class TestSymmetricRankOne:
    def test_power_tensor(self):
        rng = np.random.default_rng(4)
        a = random_unit(2, rng)
        z = tz.DenseTensor(2, 3, np.einsum("i,j,k->ijk", a, a, a))
        vecs = dc.symmetric_rank_one_decompose(z)
        assert len(vecs) <= 4 * 4  # (number of index multisets) * 2^{d-1}
        acc = sum(np.einsum("i,j,k->ijk", v, v, v) for v in vecs)
        assert np.linalg.norm(acc - z.entries) <= 1e-10

    def test_polarization_matrix_case(self):
        # sym(e1 (x) e2) = ((e1+e2)^{ox 2} - (e1-e2)^{ox 2}) / 4
        z = tz.DenseTensor(2, 2, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        vecs = dc.symmetric_rank_one_decompose(z)
        acc = sum(np.outer(v, v) for v in vecs)
        assert np.allclose(acc, z.entries, atol=1e-12)

    def test_random_order3(self):
        z = random_symmetric(3, 3, 5)
        vecs = dc.symmetric_rank_one_decompose(z)
        acc = sum(np.einsum("i,j,k->ijk", v, v, v) for v in vecs)
        assert np.linalg.norm(acc - z.entries) <= 1e-10 * z.norm()

    def test_matrix_case_term_count(self):
        z = random_symmetric(3, 2, 6)
        vecs = dc.symmetric_rank_one_decompose(z)
        assert len(vecs) <= 3
        acc = sum(np.outer(v, v) for v in vecs)
        assert np.linalg.norm(acc - z.entries) <= 1e-10 * z.norm()

    def test_requires_symmetric(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        with pytest.raises(NotSymmetric):
            dc.symmetric_rank_one_decompose(tz.DenseTensor(2, 3, raw))

    def test_zero_tensor(self):
        assert dc.symmetric_rank_one_decompose(tz.zero(2, 2)) == []


class TestVandermonde:
    def test_power_solution_real_and_feasible(self):
        for d in (1, 2, 3, 4):
            nodes, z = dc.vandermonde_power_solution(d)
            a = np.array([[x**k for x in nodes] for k in range(2 * d + 1)])
            import math

            rhs = np.zeros(2 * d + 1)
            rhs[0], rhs[d], rhs[2 * d] = 1.0, math.sqrt(math.factorial(d)), math.factorial(d)
            assert np.linalg.norm(a @ z - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_square_solution(self):
        for d in (2, 4):
            nodes, y = dc.vandermonde_square_solution(d)
            a = np.array([[x ** (2 * k) for x in nodes] for k in range(d + 1)])
            rhs = np.zeros(d + 1)
            rhs[0] = rhs[d // 2] = 1.0
            assert np.linalg.norm(a @ y - rhs) <= 1e-9


def hilbert_identity_error(a, d, n_samples=100, seed=0):
    terms = dc.hilbert_terms(a, d)
    lams = np.array([t.coeff for t in terms])
    c = np.array([t.vector for t in terms])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
        target = abs(np.sum((a @ x) ** d)) ** 2
        got = float(np.sum(lams * np.abs(c @ x) ** (2 * d)))
        worst = max(worst, abs(got - target) / max(abs(target), 1e-30))
    return worst


class TestHilbertTerms:
    def test_single_row_power(self):
        for d in (1, 2, 3):
            a = np.array([[1.0 + 0.5j, -0.3j]])
            assert hilbert_identity_error(a, d) <= 1e-8

    def test_even_d_two_rows(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert hilbert_identity_error(a, 2) <= 1e-8

    def test_odd_d_two_rows(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert hilbert_identity_error(a, 3) <= 1e-8

    def test_coefficients_real(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for term in dc.hilbert_terms(a, 2):
            assert isinstance(term.coeff, float)

    def test_budget(self):
        with pytest.raises(TermBudgetExceeded):
            dc.hilbert_terms(np.ones((7, 2), dtype=complex), 2)


class TestSquareModulus:
    def test_power_tensor(self):
        rng = np.random.default_rng(11)
        a = random_unit(2, rng)
        z = tz.DenseTensor(2, 2, np.outer(a, a))
        terms = dc.square_modulus_decompose(z)
        recon = tz.assemble(terms, 2, 2)
        expect = np.multiply.outer(np.conj(z.entries), z.entries)
        assert np.linalg.norm(recon.entries - expect) <= 1e-8

    def test_two_power_sum(self):
        z = tz.DenseTensor(2, 2, np.eye(2, dtype=complex))  # e1^{ox2} + e2^{ox2}
        terms = dc.square_modulus_decompose(z)
        recon = tz.assemble(terms, 2, 2)
        expect = np.multiply.outer(np.conj(z.entries), z.entries)
        assert np.linalg.norm(recon.entries - expect) <= 1e-8

    def test_conj_form_matches_squared_modulus(self):
        rng = np.random.default_rng(12)
        z = random_symmetric(2, 2, 12)
        terms = dc.square_modulus_decompose(z)
        t = tz.assemble(terms, 2, 2)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            val = tz.conj_form_eval(t, x).real
            target = abs(np.sum(z.entries * np.multiply.outer(x, x))) ** 2
            assert abs(val - target) <= 1e-8 * max(target, 1.0)


class TestCpsDecompose:
    def test_zero_tensor(self):
        assert dc.cps_decompose(tz.zero(2, 4)) == []

    def test_gap_tensor(self, gap_tensor):
        terms = dc.cps_decompose(gap_tensor)
        assert len(terms) >= 3  # no two-term real decomposition exists
        recon = tz.assemble(terms, 2, 2)
        assert np.linalg.norm(recon.entries - gap_tensor.entries) <= 1e-8

    def test_random_round_trip(self):
        for seed in range(3):
            t = random_cps_tensor(2, 20 + seed)
            terms = dc.cps_decompose(t)
            recon = tz.assemble(terms, 2, 2)
            assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()

    def test_terms_are_cps_terms(self):
        t = random_cps_tensor(2, 23)
        for term in dc.cps_decompose(t):
            single = tz.assemble([term], 2, 2)
            assert tz.is_cps(single)

    def test_requires_cps(self):
        with pytest.raises(NotCps):
            dc.cps_decompose(random_ps_tensor(2, 24))


class TestFixedDesign:
    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_term_bound(self, n, d):
        t = random_cps_tensor(n, 40 + n, d=d)
        terms = dc.cps_decompose(t)
        assert len(terms) <= math.comb(n + d - 1, d) ** 2
        recon = tz.assemble(terms, n, d)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()

    def test_unit_vectors(self):
        for term in dc.cps_decompose(random_cps_tensor(3, 45)):
            assert np.linalg.norm(term.vector) == pytest.approx(1.0, abs=1e-12)

    def test_repeat_calls_identical(self):
        t = random_cps_tensor(3, 46)
        first = dc.cps_decompose(t)
        dc._cps_design.cache_clear()  # a rebuilt design is the same design
        second = dc.cps_decompose(t)
        assert [x.coeff for x in first] == [y.coeff for y in second]
        assert all(np.array_equal(x.vector, y.vector) for x, y in zip(first, second))

    def test_condition_numbers(self):
        # the square coordinate matrix, rebuilt column by column: the gathered
        # entries of each design vector's rank-one CPS tensor, split into real
        # and imaginary parts as cps_decompose splits T's
        for d in (1, 2, 3):
            for n in range(1, 6):
                size = math.comb(n + d - 1, d)
                if size**2 <= dc.MAX_DESIGN_TERMS:
                    design = dc._cps_design(n, d)
                    columns = []
                    for a in design.vectors:
                        vals = tz.rank_one_cps(1.0, a, d).entries.reshape(-1)[design.gather]
                        columns.append(np.concatenate([vals.real, vals.imag[size:]]))
                    assert np.linalg.cond(np.array(columns).T) <= 1e4, (n, d)

    def test_budget_before_design(self):
        t = random_cps_tensor(9, 47)  # N = 45, N^2 = 2025
        misses = dc._cps_design.cache_info().misses
        with pytest.raises(TermBudgetExceeded, match="2025"):
            dc.cps_decompose(t)
        assert dc._cps_design.cache_info().misses == misses

    @pytest.mark.parametrize("coeff", [-2.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rank_one_single_term(self, d, coeff):
        rng = np.random.default_rng(48)
        a = random_unit(3, rng)
        terms = dc.cps_decompose(tz.rank_one_cps(coeff, a, d))
        assert len(terms) == 1
        assert terms[0].coeff == pytest.approx(coeff, abs=1e-10)
        assert abs(abs(np.vdot(terms[0].vector, a)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (2, 3), (3, 3)])
    def test_generic_tensor_skips_eigendecomposition(self, n, d, monkeypatch):
        # the trace screen rules out rank one before any spectrum is taken
        def spy(*args, **kwargs):
            raise AssertionError("_eigh called")

        monkeypatch.setattr(rs, "_eigh", spy)
        monkeypatch.setattr(dc, "_eigh", spy)
        t = random_cps_tensor(n, 60 + n, d=d)
        recon = tz.assemble(dc.cps_decompose(t), n, d)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()

    def test_design_logged_once(self, caplog):
        t = random_cps_tensor(2, 49)
        dc._cps_design.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="cpstensor"):
            dc.cps_decompose(t)
            dc.cps_decompose(t)
        messages = [r.getMessage() for r in caplog.records if r.name == "cpstensor.decompose"]
        assert len(messages) == 1
        assert "n=2 d=2 terms=9" in messages[0]

    def test_logger_silent_by_default(self):
        handlers = logging.getLogger("cpstensor").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


class TestOrderSix:
    @pytest.mark.parametrize("n", [2, 3])
    def test_cps_round_trip(self, n):
        t = random_cps_tensor(n, 50 + n, d=3)
        terms = dc.cps_decompose(t)
        recon = tz.assemble(terms, n, 3)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()

    def test_ps_round_trip(self):
        t = random_ps_tensor(2, 53, d=3)
        terms = dc.ps_decompose(t)
        recon = tz.assemble(terms, 2, 3)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()


class TestPsDecompose:
    def test_cps_input_real_coefficients(self):
        t = random_cps_tensor(2, 25)
        for term in dc.ps_decompose(t):
            assert abs(complex(term.coeff).imag) <= 1e-8

    def test_imaginary_cps_gives_imaginary_coefficients(self):
        c = random_cps_tensor(2, 26)
        t = tz.DenseTensor(2, 4, 1j * c.entries)
        for term in dc.ps_decompose(t):
            assert abs(complex(term.coeff).real) <= 1e-8

    def test_random_ps_round_trip(self):
        t = random_ps_tensor(2, 27)
        terms = dc.ps_decompose(t)
        recon = tz.assemble(terms, 2, 2)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()


class TestRealify:
    def test_real_input_unchanged(self):
        t = random_cps_tensor(2, 28)
        terms = dc.cps_decompose(t)
        ps_terms = [tz.PsTerm(term.coeff, term.vector) for term in terms]
        out = dc.realify_coefficients(ps_terms, t)
        assert [o.coeff for o in out] == [term.coeff for term in terms]

    def test_ps_decomposition_realifies(self):
        t = random_cps_tensor(2, 29)
        # decompose through the PS path, then drop imaginary coefficient parts
        ps_terms = dc.ps_decompose(t)
        out = dc.realify_coefficients(ps_terms, t)
        recon = tz.assemble(out, 2, 2)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-8 * t.norm()

    def test_cancelling_imaginary_parts(self):
        rng = np.random.default_rng(30)
        a = random_unit(2, rng)
        t = tz.rank_one_cps(2.0, a, 2)
        terms = [tz.PsTerm(2.0 + 0.7j, a), tz.PsTerm(-0.7j, a)]
        out = dc.realify_coefficients(terms, t)
        recon = tz.assemble(out, 2, 2)
        assert np.linalg.norm(recon.entries - t.entries) <= 1e-10

    def test_residual_guard(self):
        rng = np.random.default_rng(31)
        a = random_unit(2, rng)
        t = tz.rank_one_cps(1.0, a, 2)
        with pytest.raises(ResidualTooLarge):
            dc.realify_coefficients([tz.PsTerm(5.0, a)], t)


class TestMergeTerms:
    def test_parallel_vectors_fold(self):
        a = np.array([1.0, 1.0j]) / np.sqrt(2)
        terms = [
            tz.CpsTerm(1.0, a),
            tz.CpsTerm(2.0, 2.0 * a * np.exp(0.3j)),  # scale 2 -> coeff * 16
        ]
        merged = dc.merge_terms(terms, 2)
        assert len(merged) == 1
        assert merged[0].coeff == pytest.approx(1.0 + 2.0 * 16.0)

    def test_assembly_preserved(self):
        rng = np.random.default_rng(32)
        terms = [tz.CpsTerm(rng.standard_normal(), random_unit(2, rng)) for _ in range(6)]
        terms += [tz.CpsTerm(0.5, terms[0].vector * np.exp(1j))]
        merged = dc.merge_terms(terms, 2)
        t1 = tz.assemble(terms, 2, 2)
        t2 = tz.assemble(merged, 2, 2)
        assert np.linalg.norm(t1.entries - t2.entries) <= 1e-10

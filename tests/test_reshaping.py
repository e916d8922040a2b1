import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpstensor.reshaping as rs
import cpstensor.tensor as tz
from cpstensor.errors import (
    BadPermutation,
    NonHermitianInput,
    NotInSubspace,
    NotRankOne,
    SizeMismatch,
    ZeroMatrix,
)
from cpstensor.linalg import top_singular_ratio
from conftest import random_cps_tensor, random_ps_tensor, random_unit


class TestPiTranspose:
    def test_matrix_transpose(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = tz.DenseTensor(4, 2, a)
        assert np.allclose(rs.pi_transpose(t, (2, 1)).entries, a.T)

    def test_conj_transpose_via_block_swap(self):
        t = random_ps_tensor(2, 1)
        swapped = rs.pi_transpose(t, (3, 4, 1, 2))
        assert np.allclose(tz.conj_transpose(t).entries, np.conj(swapped.entries))

    def test_identity(self):
        t = random_ps_tensor(2, 2)
        assert np.allclose(rs.pi_transpose(t, (1, 2, 3, 4)).entries, t.entries)

    def test_definition_entrywise(self):
        # (T^pi) indexed at (i_{pi_1}, .., i_{pi_{2d}}) equals T at (i_1, .., i_{2d})
        rng = np.random.default_rng(3)
        t = tz.DenseTensor(2, 4, rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4))
        pi = (2, 4, 1, 3)
        tp = rs.pi_transpose(t, pi)
        for idx in itertools.product(range(2), repeat=4):
            permuted = tuple(idx[p - 1] for p in pi)
            assert tp.entries[permuted] == t.entries[idx]


class TestMatricize:
    def test_rank_one_pattern(self):
        rng = np.random.default_rng(4)
        x = random_unit(3, rng)
        t = tz.rank_one_cps(1.0, x, 2)
        u = rs.vectorize(tz.DenseTensor(3, 2, np.multiply.outer(x, x)))
        assert np.allclose(rs.matricize(t), np.outer(np.conj(u), u))

    def test_vectorize_round_trip(self):
        t = random_ps_tensor(3, 5)
        v = rs.vectorize(t)
        back = rs.devectorize(v, 3, 4)
        assert np.array_equal(back.entries, t.entries)

    def test_rank_deceptive_matricization(self, rank_deceptive_tensor):
        w = np.array([1.0, 1.0 + 1.0j, 1.0 + 1.0j, 2.0])
        m = rs.matricize(rank_deceptive_tensor)
        assert np.allclose(m, np.outer(np.conj(w), w))

    def test_matricize_pi_round_trip(self):
        t = random_cps_tensor(2, 6, d=3)
        pi = (2, 5, 1, 4, 6, 3)
        m = rs.matricize_pi(t, pi)
        back = rs.dematricize_pi(m, pi, 2, 3)
        assert np.allclose(back.entries, t.entries)

    def test_identity_pi_is_standard(self):
        t = random_ps_tensor(2, 7)
        assert np.allclose(rs.matricize_pi(t, (1, 2, 3, 4)), rs.matricize(t))

    def test_gap_tensor_canonical_is_hermitian(self, gap_tensor):
        m = rs.matricize_pi(gap_tensor, (1, 3, 4, 2))
        assert np.allclose(m, m.conj().T)


def _conj_condition_oracle(pi, d):
    first = set(range(1, d + 1))
    return all(len({pi[k], pi[d + k]} & first) == 1 for k in range(d))


def _rank_condition_oracle(pi, d):
    hits = sum(1 for p in pi[:d] if p <= d)
    import math

    return math.floor(d / 2) <= hits <= math.ceil(d / 2)


class TestPermutationConditions:
    def test_canonical_examples(self):
        assert rs.satisfies_conj_condition((1, 3, 4, 2), 2)
        assert rs.satisfies_rank_condition((1, 3, 4, 2), 2)
        assert rs.satisfies_rank_condition((1, 2, 4, 5, 6, 3), 3)
        assert rs.satisfies_conj_condition((2, 1), 1)

    def test_identity_permutation(self):
        # the standard matricization of any CPS tensor is Hermitian, so the
        # identity passes the conjugate condition; it fails the rank condition
        # for d >= 2 (intersection size d exceeds ceil(d/2))
        assert rs.satisfies_conj_condition((1, 2, 3, 4), 2)
        assert not rs.satisfies_rank_condition((1, 2, 3, 4), 2)

    def test_canonical_pi_values(self):
        assert rs.canonical_pi(2) == (1, 3, 4, 2)
        assert rs.canonical_pi(3) == (1, 2, 4, 5, 6, 3)
        assert rs.canonical_pi(4) == (1, 2, 5, 6, 7, 8, 3, 4)

    def test_canonical_satisfies_both(self):
        for d in range(1, 5):
            pi = rs.canonical_pi(d)
            assert rs.satisfies_conj_condition(pi, d)
            assert rs.satisfies_rank_condition(pi, d)

    def test_bad_permutation(self):
        with pytest.raises(BadPermutation):
            rs.satisfies_conj_condition((1, 1, 2, 3), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.randoms(use_true_random=False))
    def test_conditions_match_oracle(self, d, rnd):
        pi = list(range(1, 2 * d + 1))
        rnd.shuffle(pi)
        pi = tuple(pi)
        assert rs.satisfies_conj_condition(pi, d) == _conj_condition_oracle(pi, d)
        assert rs.satisfies_rank_condition(pi, d) == _rank_condition_oracle(pi, d)


class TestHermitianAndRankOneProperties:
    def test_rank_one_matricizes_rank_one_for_any_pi(self):
        # general pi need not give a Hermitian matrix, so rank-one-ness is
        # checked on singular values
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_unit(3, rng)
            t = tz.rank_one_cps(1.0, a, 2)
            pi = list(range(1, 5))
            rng.shuffle(pi)
            s = np.linalg.svd(rs.matricize_pi(t, tuple(pi)), compute_uv=False)
            assert s[1] / s[0] <= 1e-8

    def test_conj_condition_gives_hermitian(self):
        rng = np.random.default_rng(9)
        pis = [p for p in itertools.permutations(range(1, 5)) if rs.satisfies_conj_condition(p, 2)]
        for seed in range(3):
            t = random_cps_tensor(2, 100 + seed)
            for pi in pis:
                m = rs.matricize_pi(t, pi)
                assert np.linalg.norm(m - m.conj().T) <= 1e-8 * np.linalg.norm(m)

    def test_counterexample_canonical_detects_rank(self, rank_deceptive_tensor):
        m_std = rs.matricize(rank_deceptive_tensor)
        assert top_singular_ratio(m_std) <= 1e-10
        m_can = rs.matricize_pi(rank_deceptive_tensor, rs.canonical_pi(2))
        assert top_singular_ratio(m_can) > 0.1


def _valid_pis(d):
    for pi in itertools.permutations(range(1, 2 * d + 1)):
        if rs.satisfies_conj_condition(pi, d) and rs.satisfies_rank_condition(pi, d):
            yield pi


def _random_matrix(size, rng):
    return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))


class TestCpsProjector:
    @pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (2, 3)])
    def test_matches_symmetrize_then_hermitian_part(self, n, d):
        # every permutation, not only the valid ones: extraction projects
        # with whatever pi it is given
        rng = np.random.default_rng(40 + d)
        for pi in itertools.permutations(range(1, 2 * d + 1)):
            x = _random_matrix(n**d, rng)
            ref = rs.matricize_pi(
                tz.hermitian_part(tz.symmetrize_ps(rs.dematricize_pi(x, pi, n, d))), pi
            )
            assert np.max(np.abs(rs.cps_projector(n, d, pi)(x) - ref)) <= 1e-13

    @pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (2, 3)])
    def test_tensor_coordinates(self, n, d):
        rng = np.random.default_rng(50 + d)
        w = rng.standard_normal((n,) * (2 * d)) + 1j * rng.standard_normal((n,) * (2 * d))
        ref = tz.hermitian_part(tz.symmetrize_ps(tz.DenseTensor(n, 2 * d, w))).entries
        assert np.max(np.abs(rs.cps_part(w, d) - ref)) <= 1e-13

    @pytest.mark.parametrize("n,d", [(3, 1), (4, 2), (2, 3)])
    def test_exactly_hermitian_and_idempotent(self, n, d):
        rng = np.random.default_rng(60 + d)
        for pi in _valid_pis(d):
            project = rs.cps_projector(n, d, pi)
            p = project(_random_matrix(n**d, rng))
            assert np.array_equal(p, p.conj().T)
            assert np.max(np.abs(project(p) - p)) <= 1e-14 * np.linalg.norm(p)


class TestRealCoordinates:
    # d = 2: U^H M_pi(CPS) U is real symmetric for every pi meeting both conditions
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_frame_is_unitary(self, n):
        u = rs.real_frame(n)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n * n))) <= 1e-15
        assert np.max(np.count_nonzero(u, axis=0)) <= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_data_is_real(self, n):
        u = rs.real_frame(n)
        for k, pi in enumerate(_valid_pis(2)):
            c = np.conj(rs.matricize_pi(random_cps_tensor(n, 70 + k), pi))
            assert np.max(np.abs((u.conj().T @ c @ u).imag)) <= 1e-14 * np.linalg.norm(c)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projector(self, n):
        rng = np.random.default_rng(80 + n)
        u = rs.real_frame(n)
        pis = list(_valid_pis(2))
        assert len(pis) == 8
        for pi in pis:
            project = rs.real_cps_projector(n, pi)
            y = rng.standard_normal((n * n, n * n))  # any real matrix, not only symmetric
            ref = u.conj().T @ rs.cps_projector(n, 2, pi)(u @ y @ u.conj().T) @ u
            p = project(y)
            assert p.dtype == np.float64
            assert np.max(np.abs(p - ref)) <= 1e-13
            assert np.array_equal(p, p.T)
            assert np.max(np.abs(project(p) - p)) <= 1e-13


@pytest.fixture
def eigh_calls(monkeypatch):
    """One entry per eigendecomposition (_eigh call) that reshaping makes."""
    calls = []
    eigh = rs._eigh
    monkeypatch.setattr(rs, "_eigh", lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
    return calls


class TestExtraction:
    def test_one_eigendecomposition(self, eigh_calls):
        rng = np.random.default_rng(16)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, random_unit(3, rng), 2), rs.canonical_pi(2))
        rs.extract_rank_one_vector(x, rs.canonical_pi(2), 3, 2)
        assert len(eigh_calls) == 1

    def test_exact_round_trip(self):
        rng = np.random.default_rng(10)
        a = random_unit(3, rng)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), rs.canonical_pi(2))
        vec, lam = rs.extract_rank_one_vector(x, rs.canonical_pi(2), 3, 2)
        assert lam == pytest.approx(1.0, abs=1e-10)
        align = np.vdot(vec, a)
        assert np.linalg.norm(a * np.exp(-1j * np.angle(align)) - vec) <= 1e-10

    def test_scaling(self):
        rng = np.random.default_rng(11)
        a = random_unit(2, rng)
        x = 3.0 * rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), rs.canonical_pi(2))
        _, lam = rs.extract_rank_one_vector(x, rs.canonical_pi(2), 2, 2)
        assert lam == pytest.approx(3.0, abs=1e-10)

    def test_random_reconstruction_residual(self):
        rng = np.random.default_rng(12)
        pi = rs.canonical_pi(2)
        for seed in range(10):
            a = random_unit(4, rng)
            x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), pi)
            vec, lam = rs.extract_rank_one_vector(x, pi, 4, 2)
            recon = lam * rs.matricize_pi(tz.rank_one_cps(1.0, vec, 2), pi)
            assert np.linalg.norm(x - recon) <= 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (2, 3)])
    def test_round_trip_every_hermitian_pi(self, n, d):
        # the pattern is rebuilt from Kronecker products of the factors; it
        # must match the matricized rank-one tensor for every pi that gives a
        # Hermitian matricization, valid or not
        rng = np.random.default_rng(17 + d)
        for pi in itertools.permutations(range(1, 2 * d + 1)):
            if not rs.satisfies_conj_condition(pi, d):
                continue
            x = rs.matricize_pi(tz.rank_one_cps(-1.5, random_unit(n, rng), d), pi)
            vec, lam = rs.extract_rank_one_vector(x, pi, n, d)
            recon = lam * rs.matricize_pi(tz.rank_one_cps(1.0, vec, d), pi)
            assert lam == pytest.approx(-1.5, abs=1e-12)
            assert np.max(np.abs(x - recon)) <= 1e-14

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            rs.extract_rank_one_vector(np.eye(4), rs.canonical_pi(2), 3, 2)

    def test_pi_without_conjugate_condition(self):
        # only under the conjugate condition is M_pi of a rank-one CPS
        # tensor a a^H; (1,3,2,4) puts both conjugated modes in the rows
        pi = (1, 3, 2, 4)
        assert not rs.satisfies_conj_condition(pi, 2)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, random_unit(2, np.random.default_rng(18)), 2), pi)
        with pytest.raises(BadPermutation):
            rs.extract_rank_one_vector(x, pi, 2, 2)

    def test_negative_coefficient(self):
        rng = np.random.default_rng(13)
        a = random_unit(2, rng)
        x = rs.matricize_pi(tz.rank_one_cps(-2.0, a, 2), rs.canonical_pi(2))
        _, lam = rs.extract_rank_one_vector(x, rs.canonical_pi(2), 2, 2)
        assert lam == pytest.approx(-2.0, abs=1e-10)

    def test_not_rank_one(self):
        rng = np.random.default_rng(14)
        a, b = random_unit(2, rng), random_unit(2, rng)
        x = rs.matricize_pi(
            tz.assemble([tz.CpsTerm(1.0, a), tz.CpsTerm(0.8, b)], 2, 2),
            rs.canonical_pi(2),
        )
        with pytest.raises(NotRankOne):
            rs.extract_rank_one_vector(x, rs.canonical_pi(2), 2, 2)

    def test_not_in_subspace(self):
        # rank-one Hermitian, but X22 != X33 violates the matricized-CPS ties
        v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        x = np.outer(v, v).astype(complex)
        with pytest.raises(NotInSubspace):
            rs.extract_rank_one_vector(x, rs.canonical_pi(2), 2, 2)

    @pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-4])
    def test_trace_screen_passes_near_boundary(self, tol, eigh_calls):
        # Hermitian X = Q diag(w) Q^H with |w_i| just under tol |w_1| for
        # i >= 2, worst when all of them sit at -tol |w_1| against w_1's sign:
        # the screen lets each through to the ratio test, which accepts it;
        # the subspace check or the residual may still reject it
        rng = np.random.default_rng(19)
        for n, d in [(2, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]:
            size = n**d
            for k in range(6):
                z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                q, _ = np.linalg.qr(z)
                w1 = (-1) ** k * rng.uniform(0.5, 3.0)
                if k < 2:
                    w = np.full(size, -np.sign(w1) * tol * abs(w1) * 0.999)
                else:
                    w = rng.uniform(-1.0, 1.0, size) * tol * abs(w1) * 0.999
                w[0] = w1
                try:
                    rs.extract_rank_one_vector((q * w) @ q.conj().T, rs.canonical_pi(d), n, d, tol)
                except (NotInSubspace, NotRankOne) as exc:
                    assert "ratio" not in str(exc)
        assert len(eigh_calls) == 8 * 6

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trace_screen_keeps_near_rank_one(self, d, eigh_calls):
        # lam a a^H plus an opposite-signed rank-one CPS term on a unit b
        # orthogonal to a, which makes the eigenvalue ratio 0.999 tol:
        # accepted, and read off the top eigenpair
        rng = np.random.default_rng(20 + d)
        n, tol, pi = 3, 1e-6, rs.canonical_pi(d)
        for lam in (2.0, -1.5):
            a, b = random_unit(n, rng), random_unit(n, rng)
            b -= np.vdot(a, b) * a
            b /= np.linalg.norm(b)
            terms = [tz.CpsTerm(lam, a), tz.CpsTerm(-0.999 * tol * lam, b)]
            x = rs.matricize_pi(tz.assemble(terms, n, d), pi)
            mods = np.sort(np.abs(np.linalg.eigvalsh(x)))
            assert 0.99 * tol < mods[-2] / mods[-1] <= tol
            vec, got = rs.extract_rank_one_vector(x, pi, n, d, tol)
            assert got == pytest.approx(lam, rel=1e-12)
            assert abs(abs(np.vdot(vec, a)) - 1.0) <= 1e-12
        assert len(eigh_calls) == 2

    def test_trace_screen_rejects_indefinite(self, monkeypatch):
        monkeypatch.setattr(rs, "_eigh", lambda *a, **kw: pytest.fail("eigendecomposition ran"))
        x = rs.matricize_pi(random_cps_tensor(3, 21), rs.canonical_pi(2))
        with pytest.raises(NotRankOne, match="trace ratio"):
            rs.extract_rank_one_vector(x, rs.canonical_pi(2), 3, 2)

    @pytest.mark.parametrize("diag", [[1.0, -1.0], [-1.0, 1.0]])
    def test_modulus_tie_reads_larger_eigenvalue(self, diag):
        # a tol of 1 lets a modulus tie through: the eigenvector of +1 is read
        x = np.diag(diag).astype(complex)
        vec, lam = rs.extract_rank_one_vector(x, (1, 2), 2, 1, tol=1.0)
        assert lam == 1.0
        assert np.array_equal(vec, np.array(diag) > 0)

    def test_trace_screen_leaves_definite_to_ratio_test(self):
        # (tr X)^2 >= ||X||_F^2 for a definite X: the ratio test decides
        with pytest.raises(NotRankOne, match="eigenvalue ratio"):
            rs.extract_rank_one_vector(-np.eye(9), rs.canonical_pi(2), 3, 2)

    @pytest.mark.parametrize(
        "x, error",
        [
            (np.triu(np.ones((4, 4))), NonHermitianInput),
            (np.zeros((4, 4)), ZeroMatrix),
        ],
        ids=["non-hermitian", "zero"],
    )
    def test_exception_classes_kept(self, x, error):
        with pytest.raises(error):
            rs.extract_rank_one_vector(x, rs.canonical_pi(2), 2, 2)

    def test_deterministic_phase(self):
        rng = np.random.default_rng(15)
        a = random_unit(3, rng)
        pi = rs.canonical_pi(2)
        x = rs.matricize_pi(tz.rank_one_cps(1.0, a, 2), pi)
        v1, _ = rs.extract_rank_one_vector(x, pi, 3, 2)
        v2, _ = rs.extract_rank_one_vector(x, pi, 3, 2)
        assert np.array_equal(v1, v2)
        top = np.abs(v1).argmax()
        assert v1[top].imag == pytest.approx(0.0, abs=1e-12)
        assert v1[top].real > 0

    def test_parse_permutation(self):
        assert rs.parse_permutation("1,3,4,2") == (1, 3, 4, 2)
        with pytest.raises(BadPermutation):
            rs.parse_permutation("1,2,2,3")
        with pytest.raises(BadPermutation):
            rs.parse_permutation("a,b")


class TestLiftFactor:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "d, pi",
        [(d, rs.canonical_pi(d)) for d in (1, 2, 3, 4)] + [(3, (2, 1, 4, 5, 6, 3))],
    )
    def test_matches_kron(self, n, d, pi):
        assert rs.satisfies_conj_condition(pi, d) and rs.satisfies_rank_condition(pi, d)
        vec = random_unit(n, np.random.default_rng(30 + d))
        factors = [np.conj(vec) if p <= d else vec for p in pi[:d]]
        assert np.array_equal(rs._lift_factor(vec, pi, d), functools.reduce(np.kron, factors))

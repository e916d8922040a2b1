import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpstensor.tensor as tz
from cpstensor.errors import (
    IndexOutOfRange,
    NotPartialSymmetric,
    OddOrder,
    ParseError,
    SizeMismatch,
)
from conftest import random_cps_tensor, random_ps_tensor, random_unit


class TestConstruction:
    def test_zero(self):
        t = tz.zero(2, 4)
        assert np.all(t.entries == 0)

    def test_set_and_read(self):
        e = np.zeros((2,) * 4, dtype=complex)
        e[0, 0, 1, 1] = 1.0
        t = tz.DenseTensor(2, 4, e)
        assert tz.entry(t, (1, 1, 2, 2)) == 1.0
        assert tz.entry(t, (1, 1, 1, 1)) == 0.0

    def test_offset_matches_base_n_map_exhaustively(self):
        n, d = 2, 3
        t = tz.from_entries(n, d, np.arange(n**d, dtype=complex))
        for idx in itertools.product(range(1, n + 1), repeat=d):
            assert tz.entry(t, idx) == tz.linear_offset(n, idx) - 1

    def test_index_out_of_range(self):
        t = tz.zero(2, 2)
        with pytest.raises(IndexOutOfRange):
            tz.entry(t, (1, 3))
        with pytest.raises(IndexOutOfRange):
            tz.entry(t, (1,))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            tz.from_entries(2, 2, [1.0, 2.0])

    def test_entries_immutable(self):
        t = tz.zero(2, 2)
        with pytest.raises(ValueError):
            t.entries[0, 0] = 1.0


class TestPredicates:
    def test_gap_tensor_is_cps(self, gap_tensor):
        assert tz.is_cps(gap_tensor)

    def test_conjugate_rank_one_is_cps(self):
        rng = np.random.default_rng(0)
        a = random_unit(3, rng)
        t = tz.rank_one_cps(1.0, a, 2)
        assert tz.is_cps(t)

    def test_generic_abba_not_ps(self):
        rng = np.random.default_rng(1)
        a, b = random_unit(2, rng), random_unit(2, rng)
        raw = np.einsum("i,j,k,l->ijkl", a, b, b, a)
        assert not tz.is_ps(tz.DenseTensor(2, 4, raw))

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrder):
            tz.is_ps(tz.zero(2, 3))

    def test_cps_iff_ps_and_zero_skew(self):
        for seed in range(5):
            t = random_ps_tensor(2, seed)
            skew_norm = tz.frob_norm(tz.skew_part(t))
            assert tz.is_cps(t) == (skew_norm <= 1e-8 * max(t.norm(), 1e-12))


class TestConjTranspose:
    def test_matrix_case(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = tz.DenseTensor(3, 2, a)
        assert np.allclose(tz.conj_transpose(t).entries, a.conj().T)

    def test_involution(self):
        t = random_ps_tensor(2, 3)
        assert np.allclose(tz.conj_transpose(tz.conj_transpose(t)).entries, t.entries)

    def test_cps_fixed_point(self):
        t = random_cps_tensor(2, 4)
        assert np.allclose(tz.conj_transpose(t).entries, t.entries)

    def test_requires_ps(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
        with pytest.raises(NotPartialSymmetric):
            tz.conj_transpose(tz.DenseTensor(2, 4, raw))


class TestCartesianSplit:
    def test_cps_has_zero_skew(self):
        t = random_cps_tensor(3, 6)
        assert tz.frob_norm(tz.skew_part(t)) <= 1e-10

    def test_reconstruction_and_parts_cps(self):
        t = random_ps_tensor(2, 7)
        u, v = tz.cartesian_split(t)
        assert tz.is_cps(u) and tz.is_cps(v)
        assert np.allclose(u.entries + 1j * v.entries, t.entries)

    def test_pure_imaginary_cps(self):
        c = random_cps_tensor(2, 8)
        t = tz.DenseTensor(2, 4, 1j * c.entries)
        u, v = tz.cartesian_split(t)
        assert tz.frob_norm(u) <= 1e-10
        assert np.allclose(v.entries, c.entries)

    def test_split_uniqueness(self):
        u0 = random_cps_tensor(2, 9)
        v0 = random_cps_tensor(2, 10)
        t = tz.DenseTensor(2, 4, u0.entries + 1j * v0.entries)
        u, v = tz.cartesian_split(t)
        assert np.allclose(u.entries, u0.entries, atol=1e-10)
        assert np.allclose(v.entries, v0.entries, atol=1e-10)


class TestFrobenius:
    def test_self_inner_real_nonnegative(self):
        t = random_ps_tensor(2, 11)
        val = tz.frob_inner(t, t)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real >= 0

    def test_gap_tensor_norm(self, gap_tensor):
        assert tz.frob_norm(gap_tensor) ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_sesquilinearity(self):
        u = random_ps_tensor(2, 12)
        v = random_ps_tensor(2, 13)
        assert tz.frob_inner(u, v) == pytest.approx(np.conj(tz.frob_inner(v, u)))

    def test_shape_mismatch(self):
        with pytest.raises(SizeMismatch):
            tz.frob_inner(tz.zero(2, 2), tz.zero(3, 2))


class TestConjForm:
    def test_gap_tensor_value(self, gap_tensor):
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert tz.conj_form_eval(gap_tensor, x) == pytest.approx(0.5, abs=1e-12)

    def test_real_valued_on_cps(self):
        rng = np.random.default_rng(14)
        t = random_cps_tensor(3, 14)
        for _ in range(10):
            val = tz.conj_form_eval(t, rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert abs(val.imag) <= 1e-8 * t.norm()

    def test_rank_one_power_formula(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = -1.7
        t = tz.rank_one_cps(lam, a, 2)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert tz.conj_form_eval(t, x) == pytest.approx(lam * abs(a @ x) ** 4, rel=1e-10)

    def test_phase_invariance(self):
        rng = np.random.default_rng(16)
        t = random_cps_tensor(2, 16)
        x = random_unit(2, rng)
        base = tz.conj_form_eval(t, x)
        for theta in (0.3, 1.2, 4.5):
            assert tz.conj_form_eval(t, np.exp(1j * theta) * x) == pytest.approx(base, abs=1e-10)


class TestPartialMap:
    def test_contract_identity(self):
        rng = np.random.default_rng(17)
        t = random_ps_tensor(3, 17)
        x = random_unit(3, rng)
        lhs = np.conj(x) @ tz.partial_map(t, x)
        assert lhs == pytest.approx(tz.conj_form_eval(t, x), rel=1e-10)

    def test_rank_one_eigen_relation(self):
        # the eigenvector of coeff * conj(a)^{ox d} (x) a^{ox d} is conj(a)/||a||
        rng = np.random.default_rng(18)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = tz.rank_one_cps(1.0, a, 2)
        x = np.conj(a) / np.linalg.norm(a)
        y = tz.partial_map(t, x)
        lam = np.linalg.norm(a) ** 4
        assert np.allclose(y, lam * x, atol=1e-10 * lam)

    def test_zero_tensor(self):
        y = tz.partial_map(tz.zero(3, 4), np.ones(3, dtype=complex))
        assert np.allclose(y, 0.0)


def _contract(t: tz.DenseTensor, conj_modes, x_modes, free, x):
    """T contracted with conj(x) on conj_modes and x on x_modes, by einsum,
    free modes kept in the order given."""
    args = [t.entries, list(range(t.order))]
    for k in conj_modes:
        args += [np.conj(x), [k]]
    for k in x_modes:
        args += [x, [k]]
    return np.einsum(*args, list(free))


KERNEL_CASES = [(n, d) for d in (1, 2, 3) for n in (1, 2, 4)]


class TestConjFormKernel:
    """tz._ConjForm against einsum references and central differences, at
    orders 2, 4 and 6 with n = 1, 2 and 4."""

    @staticmethod
    def point(n, d, seed):
        t = random_cps_tensor(n, seed, d)
        x = random_unit(n, np.random.default_rng(seed))
        form = tz._ConjForm(t)
        return t, x, form, form.at(x)

    @pytest.mark.parametrize("n,d", KERNEL_CASES)
    def test_matches_einsum(self, n, d):
        t, x, form, at = self.point(n, d, 40 + n + d)
        scale = max(t.norm(), 1.0)
        g = _contract(t, range(1, d), range(d, 2 * d), [0], x)
        a = d * _contract(t, range(1, d), range(d + 1, 2 * d), [0, d], x)
        b = (d - 1) * _contract(t, range(2, d), range(d, 2 * d), [0, 1], x) if d > 1 else 0 * a
        value = _contract(t, range(d), range(d, 2 * d), [], x)
        got_a, got_b = form.derivatives(at)
        assert np.allclose(at.g, g, rtol=0, atol=1e-13 * scale)
        assert abs(at.value - value) <= 1e-13 * scale
        assert np.allclose(got_a, a, rtol=0, atol=1e-13 * scale)
        assert np.allclose(got_b, b, rtol=0, atol=1e-13 * scale)
        assert form.norm == t.norm()

    @pytest.mark.parametrize("n,d", KERNEL_CASES)
    def test_central_differences(self, n, d):
        # dg = A h + B conj(h): steps eps h and i eps h separate A and B
        t, x, form, at = self.point(n, d, 50 + n + d)
        a, b = form.derivatives(at)
        h = random_unit(n, np.random.default_rng(60 + n + d))
        eps = 1e-5
        for direction in (h, 1j * h):
            diff = (form.at(x + eps * direction).g - form.at(x - eps * direction).g) / (2 * eps)
            expected = a @ direction + b @ np.conj(direction)
            assert np.allclose(diff, expected, rtol=0, atol=1e-8 * max(t.norm(), 1.0))

    @pytest.mark.parametrize("n,d", KERNEL_CASES)
    def test_a_hermitian_b_symmetric(self, n, d):
        t, _, form, at = self.point(n, d, 70 + n + d)
        a, b = form.derivatives(at)
        tol = 1e-13 * max(t.norm(), 1.0)
        assert np.allclose(a, a.conj().T, rtol=0, atol=tol)
        assert np.allclose(b, b.T, rtol=0, atol=tol)


class TestAssemble:
    def test_single_unit_term(self):
        t = tz.assemble([tz.CpsTerm(1.0, np.array([1.0, 0.0]))], 2, 2)
        expect = np.zeros((2,) * 4, dtype=complex)
        expect[0, 0, 0, 0] = 1.0
        assert np.allclose(t.entries, expect)

    def test_opposite_terms_cancel(self):
        rng = np.random.default_rng(19)
        a = random_unit(2, rng)
        t = tz.assemble([tz.CpsTerm(1.0, a), tz.CpsTerm(-1.0, a)], 2, 2)
        assert tz.frob_norm(t) <= 1e-14

    def test_real_coeffs_give_cps_complex_give_ps(self):
        rng = np.random.default_rng(20)
        terms = [tz.CpsTerm(0.7, random_unit(2, rng)), tz.CpsTerm(-1.2, random_unit(2, rng))]
        assert tz.is_cps(tz.assemble(terms, 2, 2))
        ps_terms = [tz.PsTerm(0.7 + 0.3j, random_unit(2, rng))]
        out = tz.assemble(ps_terms, 2, 2)
        assert tz.is_ps(out) and not tz.is_cps(out)


class TestSymmetrizePs:
    def test_fixed_point(self):
        t = random_ps_tensor(2, 21)
        assert np.allclose(tz.symmetrize_ps(t).entries, t.entries, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        raw = tz.DenseTensor(2, 4, rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4))
        once = tz.symmetrize_ps(raw)
        assert np.allclose(tz.symmetrize_ps(once).entries, once.entries, atol=1e-12)

    def test_matches_four_term_average(self):
        rng = np.random.default_rng(23)
        w = rng.standard_normal((3,) * 4) + 1j * rng.standard_normal((3,) * 4)
        got = tz.symmetrize_ps(tz.DenseTensor(3, 4, w)).entries
        expect = 0.25 * (
            w + w.transpose(1, 0, 2, 3) + w.transpose(0, 1, 3, 2) + w.transpose(1, 0, 3, 2)
        )
        assert np.allclose(got, expect)

    def test_orthogonal_projector(self):
        rng = np.random.default_rng(24)
        raw = tz.DenseTensor(2, 4, rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4))
        p = tz.symmetrize_ps(raw)
        resid = tz.DenseTensor(2, 4, raw.entries - p.entries)
        assert abs(tz.frob_inner(p, resid)) <= 1e-12


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        t = random_cps_tensor(2, 25)
        path = tmp_path / "t.json"
        tz.save_tensor(t, path)
        back = tz.load_tensor(path)
        assert back.n == t.n and back.order == t.order
        assert np.array_equal(back.entries, t.entries)

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8"):
            tz.load_tensor(path)

    def test_schema(self):
        payload = json.loads(tz.tensor_to_json(tz.zero(2, 2)))
        assert payload["n"] == 2 and payload["d"] == 2
        assert payload["entries"] == [[0.0, 0.0]] * 4

    def test_parse_error(self):
        with pytest.raises(tz.ParseError):
            tz.tensor_from_json("{not json")
        with pytest.raises(tz.ParseError):
            tz.tensor_from_json('{"n": 2, "d": 2, "entries": [[0, 0]]}')


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.data())
def test_offset_formula_property(n, d, data):
    idx = tuple(data.draw(st.integers(1, n)) for _ in range(d))
    flat = np.arange(n**d, dtype=complex)
    t = tz.from_entries(n, d, flat)
    assert tz.entry(t, idx) == tz.linear_offset(n, idx) - 1

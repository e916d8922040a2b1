import numpy as np
import pytest

from cpstensor import linalg
from cpstensor.errors import ZeroMatrix
from cpstensor.linalg import top_singular_ratio


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def with_spectrum(w, is_complex, seed):
    """Q diag(w) Q^H for a random orthogonal (real) or unitary Q."""
    rng = np.random.default_rng(seed)
    n = len(w)
    a = rng.standard_normal((n, n))
    if is_complex:
        a = a + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return (q * np.asarray(w, dtype=float)) @ q.conj().T


def reference_prox(x, tau=None):
    """The prox from a full np.linalg.eigh of the Hermitian part."""
    w, v = np.linalg.eigh(0.5 * (x + x.conj().T))
    w = np.maximum(w, 0.0) if tau is None else np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return (v * w) @ v.conj().T


class TestHermEig:
    # the eigen kernel itself, _eigh: eigenvalues ascending
    def test_identity(self):
        w, _ = linalg._eigh(np.eye(3, dtype=complex))
        assert np.allclose(w, [1, 1, 1])

    def test_pauli_y_spectrum(self):
        w, _ = linalg._eigh(np.array([[0, -1j], [1j, 0]]))
        assert np.allclose(w, [-1, 1])

    def test_reconstruction_residual(self):
        x = random_hermitian(10, 0)
        w, v = linalg._eigh(x.copy())
        assert np.linalg.norm(x - (v * w) @ v.conj().T) <= 1e-10 * np.linalg.norm(x)
        assert np.linalg.norm(v.conj().T @ v - np.eye(10)) <= 1e-10


class TestProjectPsd:
    # the PSD projection is the prox without tau
    def test_clips_negative_eigenvalues(self):
        out = linalg._spectral_prox(np.diag([1.0, -2.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_idempotent_on_cone(self):
        x = random_hermitian(5, 2)
        p = linalg._spectral_prox(x)
        assert np.allclose(linalg._spectral_prox(p), p, atol=1e-10)

    def test_variational_optimality_2x2(self):
        # projection characterization: Re<X - P(X), Y - P(X)> <= 0 for PSD Y
        rng = np.random.default_rng(3)
        x = random_hermitian(2, 3)
        p = linalg._spectral_prox(x)
        for _ in range(200):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = g @ g.conj().T  # exhaustive over the cone via random factors
            assert np.vdot(x - p, y - p).real <= 1e-10

    def test_min_eigenvalue_floor(self):
        x = random_hermitian(6, 4)
        w = np.linalg.eigvalsh(linalg._spectral_prox(x))
        assert w.min() >= -1e-10 * np.linalg.norm(x)


class TestEigSoftThreshold:
    # the nuclear-norm prox on Hermitian matrices is the prox with tau
    def test_zero_tau_is_identity(self):
        x = random_hermitian(4, 5)
        assert np.allclose(linalg._spectral_prox(x, 0.0), x, atol=1e-12)

    def test_scalar_shrinkage(self):
        out = linalg._spectral_prox(np.diag([3.0, -1.0]).astype(complex), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_prox_inequality_sampled(self):
        # z = prox iff 0.5||z-x||^2 + tau||z||_* minimizes; sample competitors
        rng = np.random.default_rng(6)
        x = random_hermitian(4, 6)
        tau = 0.5
        z = linalg._spectral_prox(x, tau)
        fz = 0.5 * np.linalg.norm(z - x) ** 2 + tau * np.abs(np.linalg.eigvalsh(z)).sum()
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(50):
                w = z + scale * random_hermitian(4, rng.integers(1 << 30))
                fw = (
                    0.5 * np.linalg.norm(w - x) ** 2
                    + tau * np.abs(np.linalg.eigvalsh(w)).sum()
                )
                assert fw >= fz - 1e-9

    def test_commutes_with_unitary_conjugation(self):
        rng = np.random.default_rng(7)
        x = random_hermitian(5, 7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        lhs = linalg._spectral_prox(q @ x @ q.conj().T, 0.3)
        rhs = q @ linalg._spectral_prox(x, 0.3) @ q.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(x)


class TestTopSingularRatio:
    def test_outer_product_is_rank_one(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert top_singular_ratio(np.outer(np.conj(y), y)) <= 1e-10

    def test_identity(self):
        assert top_singular_ratio(np.eye(2)) == pytest.approx(1.0)

    def test_diag(self):
        assert top_singular_ratio(np.diag([2.0, 1.0, 0.0])) == pytest.approx(0.5)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            top_singular_ratio(np.zeros((3, 3)))


class TestSubsetProx:
    # the prox computes only the eigenpairs it keeps, from one tridiagonal
    # reduction, and falls back to all eigenpairs from _eigh where that
    # reduction cannot serve; either way it must agree with the full
    # decomposition
    TAU = 0.5
    SPECTRA = {
        "all negative": [-3.0, -2.0, -1.0, -0.25, -0.1, -1e-3],
        "all positive": [3.0, 2.0, 1.0, 0.25, 0.1, 1e-3],
        "mixed": [2.0, 0.7, 0.1, -0.1, -0.4, -0.45],
        "below -tau": [2.0, 0.7, 0.1, -0.3, -0.8, -3.0],
        "at the threshold": [1.0, 0.5, 0.0, -0.2, -0.5, -0.5],
    }

    @pytest.fixture(autouse=True)
    def fallbacks(self, monkeypatch):
        """The number of calls of the full eigen kernel _eigh."""
        calls = []
        eigh = linalg._eigh

        def spy(h, *args, **kw):
            calls.append(len(h))
            return eigh(h, *args, **kw)

        monkeypatch.setattr(linalg, "_eigh", spy)
        return calls

    @staticmethod
    def inputs(spectrum, is_complex):
        """The rotated matrix, whose tridiagonal form does not split, and the
        diagonal one, whose eigenvalues sit exactly on the given values and
        whose tridiagonal form splits everywhere."""
        dtype = complex if is_complex else float
        return [with_spectrum(spectrum, is_complex, 12), np.diag(spectrum).astype(dtype)]

    def check(self, x, tau, fallbacks, fallback):
        ref = reference_prox(x, tau)
        before = len(fallbacks)
        out = linalg._spectral_prox(x, tau)
        assert out.dtype == x.dtype
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(x)
        assert len(fallbacks) - before == int(fallback)

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("name", list(SPECTRA))
    def test_psd_projection(self, name, is_complex, fallbacks):
        rotated, diagonal = self.inputs(self.SPECTRA[name], is_complex)
        self.check(rotated, None, fallbacks, fallback=False)
        self.check(diagonal, None, fallbacks, fallback=True)

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("name", list(SPECTRA))
    def test_soft_threshold(self, name, is_complex, fallbacks):
        rotated, diagonal = self.inputs(self.SPECTRA[name], is_complex)
        self.check(rotated, self.TAU, fallbacks, fallback=False)
        self.check(diagonal, self.TAU, fallbacks, fallback=True)

    @pytest.mark.parametrize("x", [[[2.0]], [[-1.0]], [[0.25]], [[3.0 + 0j]], [[-0.75 + 0j]]])
    def test_order_one_falls_back(self, x, fallbacks):
        x = np.array(x)
        self.check(x, None, fallbacks, fallback=True)
        self.check(x, self.TAU, fallbacks, fallback=True)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_cluster_straddling_the_cut(self, is_complex, fallbacks):
        # kept and dropped eigenvalues within 1e-13 of each other, around 0
        # for the projection and around tau and -tau for the soft threshold
        cluster = np.array([3e-14, 1e-13, -2e-14, -1e-13, 0.0, 5e-14])
        rest = [2.0, 1.0, -1.0, -2.5]
        for cut, tau in ((0.0, None), (self.TAU, self.TAU), (-self.TAU, self.TAU)):
            x = with_spectrum([*rest, *(cut + cluster)], is_complex, 14)
            self.check(x, tau, fallbacks, fallback=False)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_eight_kept_at_n64(self, is_complex, fallbacks):
        rng = np.random.default_rng(15)
        spectrum = np.concatenate([rng.uniform(0.6, 3.0, 8), rng.uniform(-0.45, -1e-3, 56)])
        x = with_spectrum(spectrum, is_complex, 16)
        self.check(x, None, fallbacks, fallback=False)
        self.check(x, self.TAU, fallbacks, fallback=False)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_inverse_iteration_failure_falls_back(self, is_complex, fallbacks, monkeypatch):
        stein = linalg.lapack.dstein
        failures = []

        def failing(*args):
            z, _ = stein(*args)
            failures.append(1)
            return z, 1  # info > 0: a vector that did not converge

        monkeypatch.setattr(linalg.lapack, "dstein", failing)
        x = with_spectrum(self.SPECTRA["mixed"], is_complex, 12)
        self.check(x, None, fallbacks, fallback=True)
        self.check(x, self.TAU, fallbacks, fallback=True)
        assert len(failures) == 2

    def test_empty_kept_set_is_zero(self):
        x = with_spectrum(self.SPECTRA["all negative"], True, 13)
        assert np.array_equal(linalg._spectral_prox(x), np.zeros_like(x))
        assert np.array_equal(linalg._spectral_prox(0.1 * x, self.TAU), np.zeros_like(x))

    def test_non_finite_input_gives_nan(self):
        x = np.eye(4)
        x[1, 2] = x[2, 1] = np.nan
        assert np.isnan(linalg._spectral_prox(x)).all()
        assert np.isnan(linalg._spectral_prox(x, self.TAU)).all()


class TestSubsetInCluster:
    # a top eigenvalue of multiplicity 8 at N = 16: LAPACK's bisection finds
    # no eigenvalue for il = iu = 16 on these two matrices (info = 2 without
    # vectors, none returned and info = 0 with them)
    SPECTRUM = [0.0, 1, 2, 3, 4, 5, 6, 7] + [16.0] * 8

    @pytest.mark.parametrize("is_complex,seed", [(False, 93), (True, 24)])
    def test_top_eigenpair(self, is_complex, seed):
        a = with_spectrum(self.SPECTRUM, is_complex, seed)
        kept = a.copy()
        w, _ = linalg._eigh(a, "I", vectors=False, il=16, iu=16)
        assert w == pytest.approx([16.0], rel=1e-12)
        w, v = linalg._eigh(a, "I", il=16, iu=16)
        assert w == pytest.approx([16.0], rel=1e-12)
        assert v.shape == (16, 1)
        assert np.linalg.norm(a @ v - 16.0 * v) <= 1e-12 * 16.0
        assert np.array_equal(a, kept)

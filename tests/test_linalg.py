import numpy as np
import pytest

from cbnorm import linalg
from cbnorm.errors import InvalidInputError, NotPositiveSemidefiniteError

from conftest import random_complex, random_hermitian, random_psd


class TestNorms:
    def test_trace_norm_identity(self):
        assert linalg.trace_norm(np.eye(3)) == pytest.approx(3.0)

    def test_trace_norm_zero(self):
        assert linalg.trace_norm(np.zeros((4, 4))) == 0.0

    def test_trace_norm_diag(self):
        # Singular values {3, 4} frozen from a direct SVD of diag(3, -4).
        assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_spectral_norm_identity(self):
        assert linalg.spectral_norm(np.eye(5)) == pytest.approx(1.0)

    def test_spectral_norm_diag(self):
        assert linalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_spectral_norm_rank_one(self, rng):
        u = random_complex(rng, 4)
        v = random_complex(rng, 4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert linalg.spectral_norm(np.outer(u, v.conj())) == pytest.approx(1.0)

    def test_norm_ordering(self, rng):
        for _ in range(1000):
            d = rng.integers(1, 6)
            m = random_complex(rng, (d, d))
            sp = linalg.spectral_norm(m)
            fr = float(np.linalg.norm(m))
            tr = linalg.trace_norm(m)
            assert sp <= fr + 1e-12 * max(1, fr)
            assert fr <= tr + 1e-12 * max(1, tr)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            linalg.trace_norm(np.array([[np.nan, 0], [0, 1]]))


class TestEig:
    def test_identity(self):
        es = linalg.herm_eig(np.eye(4))
        assert np.allclose(es.values, 1.0)
        assert np.allclose(es.vectors.conj().T @ es.vectors, np.eye(4))

    def test_diag(self):
        es = linalg.herm_eig(np.diag([1.0, 2.0]))
        assert np.allclose(es.values, [2.0, 1.0])

    def test_reconstruction_random(self, rng):
        h = random_hermitian(rng, 6)
        es = linalg.herm_eig(h)
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert linalg.spectral_norm(recon - h) < 1e-12 * linalg.spectral_norm(h)
        assert np.allclose(es.vectors.conj().T @ es.vectors, np.eye(6),
                           atol=1e-12)

    def test_values_sum_to_trace(self, rng):
        for _ in range(20):
            d = rng.integers(2, 8)
            h = random_hermitian(rng, d)
            es = linalg.herm_eig(h)
            assert abs(es.values.sum() - np.trace(h).real) <= \
                1e-12 * d * max(1.0, linalg.spectral_norm(h))

    def test_same_bits_as_validated_input(self, rng):
        """``herm_eig`` checks no Hermiticity, yet decomposes exactly what
        ``hermitian_part`` returns, bit for bit."""
        h = random_hermitian(rng, 5) + 1e-13 * random_complex(rng, (5, 5))
        vals, vecs = np.linalg.eigh(linalg.hermitian_part(h))
        order = np.argsort(vals)[::-1]
        es = linalg.herm_eig(h)
        assert es.values.tobytes() == vals[order].tobytes()
        assert es.vectors.tobytes() == vecs[:, order].tobytes()


class TestSqrt:
    def test_identity(self):
        assert np.allclose(linalg.matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diag(self):
        s = linalg.matrix_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]))

    def test_gram_matrix(self, rng):
        g = random_complex(rng, (5, 5))
        gram = g.conj().T @ g
        s = linalg.matrix_sqrt_psd(gram)
        assert linalg.spectral_norm(s @ s - gram) <= \
            1e-10 * linalg.spectral_norm(gram)
        assert linalg.min_eigenvalue(s) >= -linalg.PSD_TOL

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            linalg.matrix_sqrt_psd(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(InvalidInputError):
            linalg.matrix_sqrt_psd(random_complex(rng, (3, 3)))


class TestKronPartialTrace:
    def test_kron_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_units(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1
        e22 = np.zeros((2, 2))
        e22[1, 1] = 1
        k = linalg.kron(e11, e22)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1  # slow index 0, fast index 1
        assert np.allclose(k, expected)

    def test_mixed_product(self, rng):
        a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.allclose(lhs, rhs)

    def test_partial_trace_product(self, rng):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        k = linalg.kron(a, b)
        assert np.allclose(
            linalg.partial_trace(k, (2, 3), side="second"), np.trace(b) * a
        )
        assert np.allclose(
            linalg.partial_trace(k, (2, 3), side="first"), np.trace(a) * b
        )

    def test_partial_trace_index_sum(self, rng):
        m = random_complex(rng, (6, 6))
        got = linalg.partial_trace(m, (2, 3), side="second")
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    expected[i, j] += m[i * 3 + k, j * 3 + k]
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_partial_trace_preserves_trace(self, rng):
        m = random_complex(rng, (6, 6))
        for side in ("first", "second"):
            pt = linalg.partial_trace(m, (2, 3), side=side)
            assert np.trace(pt) == pytest.approx(np.trace(m))

    def test_composition_equals_full_trace(self, rng):
        m = random_complex(rng, (6, 6))
        t2 = linalg.partial_trace(m, (2, 3), side="second")
        full = linalg.partial_trace(t2, (2, 1), side="first")
        assert full[0, 0] == pytest.approx(np.trace(m))

    def test_linear(self, rng):
        m1 = random_complex(rng, (4, 4))
        m2 = random_complex(rng, (4, 4))
        lhs = linalg.partial_trace(2 * m1 + 3j * m2, (2, 2))
        rhs = 2 * linalg.partial_trace(m1, (2, 2)) + \
            3j * linalg.partial_trace(m2, (2, 2))
        assert np.allclose(lhs, rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            linalg.partial_trace(np.eye(5), (2, 3))


def test_hermitian_part_symmetrizes(rng):
    h = random_hermitian(rng, 4)
    perturbed = h + 1e-12 * random_complex(rng, (4, 4))
    out = linalg.hermitian_part(perturbed)
    assert np.allclose(out, out.conj().T)


def test_hermitian_part_rejects_non_hermitian(rng):
    with pytest.raises(InvalidInputError):
        linalg.hermitian_part(random_complex(rng, (3, 3)))


def test_psd_random_is_psd(rng):
    p = random_psd(rng, 4)
    assert linalg.min_eigenvalue(p) >= -1e-12

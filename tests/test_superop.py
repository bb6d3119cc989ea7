import numpy as np
import pytest

from cbnorm import linalg
from cbnorm.errors import InvalidInputError
from cbnorm.superop import (
    SuperOp,
    adjoint,
    apply,
    induced_trace_norm_lower_bound,
    is_channel,
    tensor,
    to_choi,
    to_kraus,
    to_stinespring,
)

from conftest import random_channel, random_complex, random_superop


def basis_unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


class TestChoi:
    def test_identity_channel(self):
        j = to_choi(SuperOp.identity(2))
        expected = np.zeros((4, 4))
        for idx in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[idx] = 1.0
        assert np.allclose(j, expected)

    def test_zero_map(self):
        zero = SuperOp.from_kraus([np.zeros((2, 2))])
        assert np.allclose(to_choi(zero), np.zeros((4, 4)))

    def test_matches_apply_on_units(self, rng):
        phi = random_superop(rng, 2, 3)
        j = to_choi(phi)
        direct = np.zeros((6, 6), dtype=complex)
        for i in range(2):
            for k in range(2):
                direct += np.kron(apply(phi, basis_unit(2, i, k)),
                                  basis_unit(2, i, k))
        assert np.max(np.abs(j - direct)) < 1e-13

    def test_linear_in_map(self, rng):
        a = random_superop(rng, 2, 2)
        b = random_superop(rng, 2, 2)
        combo = SuperOp.from_kraus(
            [2.0 * k for k in a.rep.left] + list(b.rep.left),
            [k for k in a.rep.right] + list(b.rep.right),
        )
        assert np.allclose(to_choi(combo), 2 * to_choi(a) + to_choi(b))

    def test_channel_difference(self, rng):
        c0 = random_channel(rng, 2, 2)
        c1 = random_channel(rng, 2, 2)
        diff = SuperOp.difference(c0, c1)
        assert np.allclose(to_choi(diff), to_choi(c0) - to_choi(c1))

    @pytest.mark.parametrize("n, m, r", [
        (1, 1, 1), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 4), (4, 4, 3)])
    def test_stinespring_pair_matches_definition(self, rng, n, m, r):
        """The Choi matrix of a Stinespring pair against its definition
        ``sum_ik phi(E_ik) (x) E_ik``, ``phi(X) = Tr_Z(A X B^dag)``."""
        a, b = random_complex(rng, (m * r, n)), random_complex(rng, (m * r, n))
        phi = SuperOp.from_stinespring(a, b, r)
        oracle = sum(np.kron(linalg.partial_trace(
            a @ basis_unit(n, i, k) @ b.conj().T, (m, r), side="second"),
            basis_unit(n, i, k)) for i in range(n) for k in range(n))
        j = to_choi(phi)
        assert j.shape == (m * n, m * n)
        assert np.linalg.norm(j - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_zero_stinespring_pair(self):
        zero = SuperOp.from_stinespring(np.zeros((6, 2)), np.zeros((6, 2)), 2)
        assert np.array_equal(to_choi(zero), np.zeros((6, 6)))


class TestApply:
    def test_identity(self, rng):
        x = random_complex(rng, (3, 3))
        assert np.allclose(apply(SuperOp.identity(3), x), x)

    def test_single_kraus(self):
        k = basis_unit(2, 0, 0)
        phi = SuperOp.from_kraus([k])
        assert np.allclose(apply(phi, np.eye(2)), basis_unit(2, 0, 0))

    def test_representations_agree(self, rng):
        phi = random_superop(rng, 3, 2)
        x = random_complex(rng, (3, 3))
        via_kraus = apply(phi, x)
        via_choi = apply(SuperOp.from_choi(to_choi(phi), 3, 2), x)
        pair = to_stinespring(phi)
        via_pair = apply(SuperOp.from_stinespring(pair.a, pair.b, pair.dim_env), x)
        scale = max(1.0, np.abs(via_kraus).max())
        assert np.max(np.abs(via_choi - via_kraus)) < 1e-12 * scale
        assert np.max(np.abs(via_pair - via_kraus)) < 1e-12 * scale

    def test_dimension_check(self):
        with pytest.raises(InvalidInputError):
            apply(SuperOp.identity(2), np.eye(3))


class TestStinespring:
    def test_identity_minimal(self):
        pair = to_stinespring(SuperOp.identity(2))
        assert pair.dim_env == 1
        # X -> X with a trivial environment, up to a global phase.
        assert np.allclose(np.abs(pair.a), np.eye(2))
        assert np.allclose(pair.a, pair.b)

    def test_zero_map(self):
        zero = SuperOp.from_kraus([np.zeros((2, 2))])
        pair = to_stinespring(zero)
        assert pair.dim_env == 1
        assert not pair.a.any() and not pair.b.any()

    def test_random_rank_three(self, rng):
        ops = [random_complex(rng, (2, 2)) for _ in range(3)]
        phi = SuperOp.from_kraus(ops)
        pair = to_stinespring(phi)
        assert pair.dim_env == 3
        rebuilt = SuperOp.from_stinespring(pair.a, pair.b, pair.dim_env)
        for i in range(2):
            for j in range(2):
                e = basis_unit(2, i, j)
                assert linalg.spectral_norm(
                    apply(rebuilt, e) - apply(phi, e)
                ) < 1e-10


class TestAdjoint:
    def test_identity(self, rng):
        x = random_complex(rng, (2, 2))
        assert np.allclose(apply(adjoint(SuperOp.identity(2)), x), x)

    def test_single_kraus_dagger(self, rng):
        k = random_complex(rng, (3, 2))
        phi = SuperOp.from_kraus([k])
        adj = adjoint(phi)
        assert np.allclose(adj.rep.left[0], k.conj().T)

    def test_defining_identity(self, rng):
        phi = random_superop(rng, 2, 3)
        adj = adjoint(phi)
        scale = max(1.0, linalg.spectral_norm(to_choi(phi)))
        for _ in range(100):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (3, 3))
            lhs = np.vdot(y, apply(phi, x))
            rhs = np.vdot(apply(adj, y), x)
            assert abs(lhs - rhs) <= 1e-11 * scale * \
                max(1.0, abs(lhs), abs(rhs))

    def test_involution(self, rng):
        phi = random_superop(rng, 2, 3)
        back = adjoint(adjoint(phi))
        assert np.max(np.abs(to_choi(back) - to_choi(phi))) < 1e-12 * \
            max(1.0, np.abs(to_choi(phi)).max())


class TestIsChannel:
    def test_identity(self):
        rep = is_channel(SuperOp.identity(2))
        assert rep.is_cp and rep.is_tp

    def test_scaled_identity_not_tp(self):
        rep = is_channel(SuperOp.from_kraus([2.0 * np.eye(2)]))
        assert rep.is_cp and not rep.is_tp

    def test_indefinite_choi_not_cp(self):
        j = np.diag([1.0, -1.0, 0.0, 0.0])
        rep = is_channel(SuperOp.from_choi(j, 2, 2))
        assert not rep.is_cp

    def test_random_channels(self, rng):
        for _ in range(10):
            rep = is_channel(random_channel(rng, 3, 2))
            assert rep.is_cp and rep.is_tp
            assert rep.tp_residual <= 1e-10

    def test_hermiticity_preservation(self, rng):
        # Hermitian Choi implies phi(X)^dag = phi(X^dag).
        phi = random_channel(rng, 2, 2)
        for _ in range(10):
            x = random_complex(rng, (2, 2))
            lhs = apply(phi, x).conj().T
            rhs = apply(phi, x.conj().T)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestTensor:
    def test_choi_consistency(self, rng):
        a = random_superop(rng, 2, 2)
        b = random_superop(rng, 2, 2)
        prod = tensor(a, b)
        x = random_complex(rng, (4, 4))
        # Compare against applying the factors on a product operand.
        xa = random_complex(rng, (2, 2))
        xb = random_complex(rng, (2, 2))
        lhs = apply(prod, np.kron(xa, xb))
        rhs = np.kron(apply(a, xa), apply(b, xb))
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.abs(rhs).max())
        assert prod.dim_in == 4 and prod.dim_out == 4
        assert x.shape == (4, 4)


class TestInducedNormOracle:
    def test_identity(self):
        val = induced_trace_norm_lower_bound(SuperOp.identity(2), restarts=3,
                                             seed=5)
        assert val >= 1 - 1e-9
        assert val <= 1 + 1e-9

    def test_zero(self):
        zero = SuperOp.from_kraus([np.zeros((2, 2))])
        assert induced_trace_norm_lower_bound(zero, restarts=1, seed=0) == 0.0

    def test_unitary_difference(self):
        theta = np.pi / 2
        ident = SuperOp.identity(2)
        rot = SuperOp.from_kraus([np.diag([1.0, np.exp(1j * theta)])])
        diff = SuperOp.difference(ident, rot)
        val = induced_trace_norm_lower_bound(diff, restarts=50, seed=1)
        assert val == pytest.approx(2 * np.sin(theta / 2), abs=1e-7)

    def test_deterministic(self, rng):
        phi = random_superop(rng, 2, 2)
        v1 = induced_trace_norm_lower_bound(phi, restarts=5, seed=3)
        v2 = induced_trace_norm_lower_bound(phi, restarts=5, seed=3)
        assert v1 == v2

    def test_requires_restarts(self):
        with pytest.raises(InvalidInputError):
            induced_trace_norm_lower_bound(SuperOp.identity(2), restarts=0)


def test_kraus_roundtrip(rng):
    phi = random_channel(rng, 2, 3)
    back = to_kraus(SuperOp.from_choi(to_choi(phi), 2, 3))
    assert np.max(np.abs(to_choi(back) - to_choi(phi))) < 1e-12


def test_difference_requires_channels(rng):
    with pytest.raises(InvalidInputError):
        SuperOp.difference(SuperOp.identity(2),
                           SuperOp.from_kraus([2 * np.eye(2)]))

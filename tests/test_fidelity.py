import numpy as np
import pytest

from cbnorm import SuperOp, dnorm, fidelity, linalg, verify_certificate
from cbnorm.errors import InvalidInputError
from cbnorm.fidelity import (
    check_alberti_certificate,
    check_proposition,
    fidelity_closed_form,
    fidelity_sdp,
    purification,
)
from cbnorm.linalg import hermitian_part, partial_trace

from conftest import random_complex, random_density, random_psd, random_unitary

E11 = np.diag([1.0, 0.0])
E22 = np.diag([0.0, 1.0])


def factor_fidelity(gp, gq):
    """``|sqrt(P) sqrt(Q)|_1`` for ``P = G_p G_p^dag``, ``Q = G_q G_q^dag``
    from the SVDs of the factors: no square root of a rank-deficient
    matrix."""
    up, sp, _ = np.linalg.svd(gp, full_matrices=False)
    uq, sq, _ = np.linalg.svd(gq, full_matrices=False)
    return np.linalg.svd((sp[:, None] * (up.conj().T @ uq)) * sq,
                         compute_uv=False).sum()


def regularized(z):
    vals = np.linalg.eigvalsh((z + z.conj().T) / 2)
    shift = max(0.0, -vals[0]) + 1e-13 * max(1.0, vals[-1])
    return z + shift * np.eye(z.shape[0])


class TestClosedForm:
    def test_self_fidelity(self, rng):
        rho = random_density(rng, 3)
        assert fidelity_closed_form(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_supports(self):
        assert fidelity_closed_form(E11, E22) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        f = fidelity_closed_form(E11, np.eye(2) / 2)
        # F(pure, sigma) = sqrt(<psi|sigma|psi>) by the rank-1 expansion.
        assert f ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        p = random_psd(rng, 3)
        q = random_psd(rng, 3)
        assert fidelity_closed_form(p, q) == pytest.approx(
            fidelity_closed_form(q, p), abs=1e-10 * (1 + np.trace(p).real)
        )

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            fidelity_closed_form(np.diag([1.0, -1.0]), np.eye(2))

    def test_exact_over_ranks(self, rng):
        """Rounding-level eigenvalues of a rank-deficient operator are not
        rooted: every rank pair of states matches the factors' fidelity."""
        for d in range(1, 7):
            for rank_p in range(1, d + 1):
                for rank_q in range(1, d + 1):
                    gp, gq = (g / np.linalg.norm(g) for g in (
                        random_complex(rng, (d, k)) for k in (rank_p, rank_q)))
                    got = fidelity_closed_form(gp @ gp.conj().T,
                                               gq @ gq.conj().T)
                    assert abs(got - factor_fidelity(gp, gq)) <= 1e-13, \
                        (d, rank_p, rank_q)


class TestPurification:
    def test_marginal(self, rng):
        p = random_psd(rng, 3)
        u = purification(p, 3)
        uu = np.outer(u, u.conj())
        assert np.max(np.abs(
            partial_trace(uu, (3, 3), side="first") - p
        )) < 1e-10 * (1 + np.trace(p).real)

    def test_rank_requirement(self, rng):
        p = random_psd(rng, 3)  # full rank
        with pytest.raises(InvalidInputError):
            purification(p, 2)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_rank_requirement_at_any_scale(self, rng, c):
        with pytest.raises(InvalidInputError, match="below rank 2"):
            purification(c * random_psd(rng, 3, rank=2), 1)

    def test_rank_one_allows_small_env(self):
        u = purification(E11, 1)
        uu = np.outer(u, u.conj())
        assert np.allclose(partial_trace(uu, (1, 2), side="first"), E11)


class TestFidelitySdp:
    def test_pure_equal(self):
        res = fidelity_sdp(E11, E11)
        assert res.fidelity == pytest.approx(1.0, abs=1e-7)
        assert abs(res.fidelity ** 2 - res.fidelity_squared) <= 1e-12

    def test_pure_vs_maximally_mixed(self):
        res = fidelity_sdp(E11, np.eye(2) / 2)
        assert res.fidelity_squared == pytest.approx(0.5, abs=1e-7)

    def test_matches_closed_form_random(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            p = random_density(rng, d)
            q = random_density(rng, d)
            res = fidelity_sdp(p, q)
            assert res.fidelity == pytest.approx(
                fidelity_closed_form(p, q), abs=1e-7
            )

    def test_rank_deficient_inputs(self, rng):
        p = random_density(rng, 3, rank=1)
        q = random_density(rng, 3)
        res = fidelity_sdp(p, q)
        assert res.fidelity == pytest.approx(
            fidelity_closed_form(p, q), abs=1e-7
        )

    def test_larger_purification_dim_same_value(self, rng):
        p = random_density(rng, 2)
        q = random_density(rng, 2)
        r2 = fidelity_sdp(p, q, purification_dim=2)
        r3 = fidelity_sdp(p, q, purification_dim=3)
        assert r2.fidelity == pytest.approx(r3.fidelity, abs=1e-7)

    def test_purification_dim_too_small(self, rng):
        p = random_density(rng, 3)
        with pytest.raises(InvalidInputError):
            fidelity_sdp(p, p, purification_dim=1)

    @pytest.mark.parametrize("dim", [2.0, True, np.float64(2)],
                             ids=["2.0", "True", "float64"])
    def test_rejects_non_integer_purification_dim(self, dim):
        """Refused up front, not by a ``TypeError`` in the purification (a
        pure ``P`` passes the rank test at any ``dim >= 1``)."""
        with pytest.raises(InvalidInputError, match="purification_dim"):
            fidelity_sdp(np.diag([1.0, 0.0]), np.eye(2) / 2,
                         purification_dim=dim)

    @pytest.mark.parametrize("swapped", [False, True])
    def test_makes_no_solve(self, monkeypatch, swapped):
        """``q`` is the better-conditioned operator, so the pair is swapped
        when ``p`` comes first; either way the general route solves it in
        closed form, without an interior-point solve."""
        def no_solve(*args, **kwargs):
            raise AssertionError("unexpected interior-point solve")

        monkeypatch.setattr(dnorm, "solve", no_solve)
        p, q = np.diag([0.7, 0.3]), np.eye(2) / 2
        pair = (p, q) if swapped else (q, p)
        res = fidelity_sdp(*pair)
        assert res.fidelity == pytest.approx(fidelity_closed_form(*pair),
                                             abs=1e-14)
        assert res.gap <= 1e-14

    def test_certificates_verify_over_ranks(self, monkeypatch, rng):
        """Every rank pair, including both rank-deficient: the certificate
        of the general route verifies, its bracket is tight to rounding and
        the value is the fidelity of the factors."""
        routed, solve_route = [], fidelity._solve_route

        def record(pair, options):
            res, z = solve_route(pair, options)
            routed.append((pair, res))
            return res, z

        monkeypatch.setattr(fidelity, "_solve_route", record)
        factors = [(random_complex(rng, (d, rank_p)),
                    random_complex(rng, (d, rank_q)))
                   for d in (2, 3, 4) for rank_p in range(1, d + 1)
                   for rank_q in range(1, d + 1)]
        u = random_unitary(rng, 3)
        factors.append((u[:, :1], u[:, 1:2]))  # orthogonal pure states
        for gp, gq in factors:
            res = fidelity_sdp(gp @ gp.conj().T, gq @ gq.conj().T)
            pair, norm = routed.pop()
            phi = SuperOp.from_stinespring(pair.a, pair.b, pair.dim_env)
            check = verify_certificate(phi, norm.certificate)
            assert check.valid, check.violations
            ref = factor_fidelity(gp, gq)
            assert norm.upper_bound - norm.lower_bound <= 1e-12 * ref + 1e-15
            assert abs(res.fidelity - ref) <= 1e-12 * ref + 1e-15

    def test_orthogonal_pure_states(self, rng):
        u = random_unitary(rng, 3)
        e0, e1 = (np.outer(u[:, i], u[:, i].conj()) for i in (0, 1))
        assert fidelity_sdp(e0, e1).fidelity <= 1e-15
        # F(P, |e1><e1|) = sqrt(<e1|P|e1>).
        assert fidelity_sdp(e0 + 1e-4 * e1, e1).fidelity == pytest.approx(
            1e-2, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8])
    def test_homogeneous(self, rng, c):
        p = random_density(rng, 3)
        q = random_density(rng, 3, rank=2)
        ref = fidelity_sdp(p, q).fidelity
        assert fidelity_sdp(c * p, q).fidelity == pytest.approx(
            np.sqrt(c) * ref, rel=1e-13)
        assert fidelity_sdp(q, c * p).fidelity == pytest.approx(
            np.sqrt(c) * ref, rel=1e-13)

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
    def test_homogeneous_in_rank_deficient_operator(self, c):
        """A rank-deficient operator scaled up is still PSD: its rounding is
        measured against its own largest eigenvalue."""
        p = random_density(np.random.default_rng(1), 4)
        q = random_density(np.random.default_rng(0), 4, rank=2)
        for entry in (lambda x, y: fidelity_sdp(x, y).fidelity,
                      fidelity_closed_form):
            ref = entry(p, q)
            assert entry(p, c * q) == pytest.approx(np.sqrt(c) * ref,
                                                    rel=1e-13)
            assert entry(c * q, p) == pytest.approx(np.sqrt(c) * ref,
                                                    rel=1e-13)

    @pytest.mark.parametrize("entry", [fidelity_sdp, fidelity_closed_form])
    def test_validates_each_operator_once(self, monkeypatch, rng, entry):
        calls = []

        def counted(m, *args, **kwargs):
            calls.append(m)
            return hermitian_part(m, *args, **kwargs)

        for module in (fidelity, linalg):
            monkeypatch.setattr(module, "hermitian_part", counted)
        entry(random_density(rng, 3), random_density(rng, 3, rank=2))
        assert len(calls) == 2

    def test_monotone_to_one(self, rng):
        p = random_density(rng, 3)
        delta = random_psd(rng, 3)
        delta /= np.trace(delta).real
        prev_err = np.inf
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            q = (1 - t) * p + t * delta
            err = 1.0 - fidelity_closed_form(p, q)
            assert err < prev_err + 1e-12
            prev_err = err
        assert prev_err < 1e-4


class TestAlberti:
    def test_maximally_mixed_identity_witness(self):
        n = 3
        bound = check_alberti_certificate(np.eye(n) / n, np.eye(n) / n,
                                          np.eye(n))
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_sdp_witness_tight(self, rng):
        for _ in range(5):
            p = random_density(rng, 3)
            q = random_density(rng, 3)
            res = fidelity_sdp(p, q)
            bound = check_alberti_certificate(p, q, regularized(res.alberti_z))
            fsq = fidelity_closed_form(p, q) ** 2
            assert abs(bound - fsq) <= 1e-5

    def test_identity_witness_upper_bound(self, rng):
        for _ in range(10):
            p = random_density(rng, 2)
            q = random_density(rng, 2)
            bound = check_alberti_certificate(p, q, np.eye(2))
            assert bound >= fidelity_closed_form(p, q) ** 2 - 1e-9

    def test_rejects_singular_witness(self):
        with pytest.raises(InvalidInputError):
            check_alberti_certificate(E11, E11, np.diag([1.0, 0.0]))


class TestProposition:
    def test_zero_vector(self):
        check = check_proposition(np.zeros(4), np.eye(2))
        assert check.lhs and check.rhs

    def test_unit_vector_identity_witness(self, rng):
        v = random_complex(rng, 4)
        v /= np.linalg.norm(v)
        check = check_proposition(v, np.eye(2))
        assert check.lhs and check.rhs

    def test_random_agreement(self, rng):
        checked = 0
        while checked < 200:
            dz = int(rng.integers(2, 4))
            dy = int(rng.integers(1, 4))
            v = random_complex(rng, dy * dz)
            z = random_psd(rng, dz) + 0.1 * np.eye(dz)
            check = check_proposition(v, z)
            if abs(check.inner - 1.0) < 1e-8:
                continue  # boundary band; both sides are unstable there
            assert check.lhs == check.rhs
            checked += 1

    def test_rejects_singular_z(self):
        with pytest.raises(InvalidInputError):
            check_proposition(np.zeros(4), np.diag([1.0, 0.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidInputError):
            check_proposition(np.zeros(5), np.eye(2))

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from cbnorm import superop
from cbnorm import dnorm
from cbnorm.dnorm import (
    _ascent_loop,
    _normalized_state,
    _purification,
    _sweep_operands,
    Certificate,
    NormOptions,
    build_general_sdp,
    cb_spectral_norm,
    diamond_norm,
    rebalance_stinespring,
    verify_certificate,
)
from cbnorm.errors import InvalidInputError, NumericalFailureError
from cbnorm import fidelity
from cbnorm.linalg import kron, max_eigenvalue, min_eigenvalue, partial_trace, \
    spectral_norm
from cbnorm.sdp import SolveOptions, solve
from cbnorm.serialize import certificate_from_json, matrix_to_json
from cbnorm.superop import (
    StinespringPair,
    SuperOp,
    adjoint,
    apply,
    induced_trace_norm_lower_bound,
    tensor,
    to_choi,
    to_stinespring,
)

import conftest
from conftest import (
    _psd_part,
    build_channel_diff_sdp,
    channel_diff_data,
    channel_diff_norm,
    channel_diff_psi,
    dense_oracle,
    norm_sdp_psi,
    random_channel,
    random_complex,
    random_superop,
    random_unitary,
    with_slacks,
)


def phase_diff(theta, half=False):
    """Identity minus the diag(1, e^{i theta}) unitary channel."""
    ident = SuperOp.identity(2)
    rot = SuperOp.from_kraus([np.diag([1.0, np.exp(1j * theta)])])
    diff = SuperOp.difference(ident, rot)
    if half:
        return SuperOp.from_choi(superop.to_choi(diff) / 2, 2, 2)
    return diff


def transpose_map():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    return SuperOp.from_choi(swap, 2, 2)


def weyl_channel(p):
    """``X -> sum_ab p_ab W_ab X W_ab^dag`` for the Weyl operators
    ``W_ab = X^a Z^b`` on C^d, ``p`` a d x d probability array."""
    d = len(p)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return SuperOp.from_kraus([
        np.sqrt(p[a, b]) * np.linalg.matrix_power(shift, a)
        @ np.linalg.matrix_power(clock, b)
        for a in range(d) for b in range(d)])


def _weyl_pair(d):
    """``Phi_p - Phi_q`` for seeded ``p``, ``q``, and ``|p - q|_1``."""
    rng = np.random.default_rng(9014709 + d)
    p, q = (x / x.sum() for x in rng.random((2, d, d)))
    return SuperOp.difference(weyl_channel(p), weyl_channel(q)), \
        np.abs(p - q).sum()


class TestBuildGeneral:
    def test_identity_channel(self):
        res = diamond_norm(SuperOp.identity(2),
                           NormOptions(method="general"))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.method == "general_sdp"

    def test_zero_map(self):
        res = diamond_norm(SuperOp.from_kraus([np.zeros((2, 2))]))
        assert res.value == 0.0
        assert res.lower_bound == 0.0 and res.upper_bound == 0.0

    def test_half_unitary_difference(self):
        res = diamond_norm(phase_diff(np.pi / 2, half=True))
        oracle = induced_trace_norm_lower_bound(
            phase_diff(np.pi / 2, half=True), restarts=50, seed=1
        )
        assert res.value == pytest.approx(oracle, abs=1e-6)
        assert res.value == pytest.approx(np.sin(np.pi / 4), abs=1e-6)

    def test_inconsistent_pair(self):
        with pytest.raises(InvalidInputError):
            build_general_sdp(StinespringPair(np.eye(3), np.eye(3), 2))


class TestBuildChannelDiff:
    """Channel pairs take the general route like any other map; the paper's
    channel-difference SDP (``conftest.channel_diff_norm``) is the oracle."""

    def test_equal_channels(self, rng):
        c = random_channel(rng, 2, 2)
        diff = SuperOp.difference(c, c)
        res = diamond_norm(diff)
        assert res.method == "general_sdp"
        assert res.value == res.lower_bound == res.upper_bound == 0.0
        assert verify_certificate(diff, res.certificate).valid

    def test_unitary_difference_angles(self):
        for theta in (np.pi / 2, np.pi):
            oracle = induced_trace_norm_lower_bound(
                phase_diff(theta), restarts=50, seed=1
            )
            for norm, method in ((diamond_norm, "general_sdp"),
                                 (channel_diff_norm, "channel_diff_sdp")):
                res = norm(phase_diff(theta))
                assert res.method == method
                assert res.value == pytest.approx(oracle, abs=1e-6)
                assert res.value == pytest.approx(2 * np.sin(theta / 2),
                                                  abs=1e-6)

    def test_depolarizing_vs_identity(self, rng):
        kraus = [e / 2.0 for e in (
            np.eye(2), np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]),
        )]
        depol = SuperOp.from_kraus(kraus)
        diff = SuperOp.difference(SuperOp.identity(2), depol)
        res_cd = channel_diff_norm(diff)
        res_gen = diamond_norm(diff)
        oracle = induced_trace_norm_lower_bound(diff, restarts=50, seed=1)
        assert res_cd.value == pytest.approx(res_gen.value, abs=1e-6)
        assert res_cd.value == pytest.approx(oracle, abs=1e-6)

    def test_rejects_non_channels(self):
        """The builder takes a trace-annihilating Choi matrix only, as that
        of a difference of channels is; the channels are checked where the
        difference is formed (``test_difference_requires_channels``)."""
        ident = SuperOp.identity(2)
        with pytest.raises(InvalidInputError, match="trace-annihilating"):
            build_channel_diff_sdp(ident, to_choi(ident))

    def test_channel_diff_requires_hermitian_trace_annihilating_choi(self):
        """The oracle checks what its SDP uses, a Hermitian ``J`` with
        ``Tr_Y J = 0``, not how the map is represented."""
        with pytest.raises(InvalidInputError, match="trace-annihilating"):
            channel_diff_norm(SuperOp.identity(2))
        # |0><1| (x) |0><0| on Y (x) X: trace-annihilating, not Hermitian.
        j = np.zeros((4, 4))
        j[0, 2] = 1.0
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            channel_diff_norm(SuperOp.from_choi(j, 2, 2))
        # The same difference of channels given by its Choi matrix.
        diff = phase_diff(np.pi / 3)
        res = channel_diff_norm(SuperOp.from_choi(to_choi(diff), 2, 2))
        assert res.value == channel_diff_norm(diff).value

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 10])
    def test_weyl_covariant_pairs(self, monkeypatch, d):
        """``|Phi_p - Phi_q|_diamond = |p - q|_1`` for Weyl-covariant
        channels, whose Kraus rank is ``d^2``: a maximally entangled input
        is optimal, where the Choi matrices are diagonal in the Bell basis
        with eigenvalues ``p`` and ``q``.  From ``d = 3`` the pair is a
        full-rank map under the ascent rule, certified at the first dual
        evaluation on the accelerated ascent."""
        diff, exact = _weyl_pair(d)
        sweeps, real = [], dnorm._ascent_sweep
        monkeypatch.setattr(dnorm, "_ascent_sweep",
                            lambda *args: sweeps.append(1) or real(*args))
        res = diamond_norm(diff)
        assert res.method == "general_sdp"
        assert to_stinespring(diff).dim_env == d * d
        if _ascent_rule(d, d):
            assert res.solver_stats.iterations == 0 and len(sweeps) == 5
        assert res.lower_bound <= exact * (1 + 1e-9)
        assert res.upper_bound >= exact * (1 - 1e-9)
        assert res.value == pytest.approx(exact, rel=1e-9)
        check = verify_certificate(diff, res.certificate)
        assert check.valid, check.violations


class TestDiamondNorm:
    def test_transpose(self):
        res = diamond_norm(transpose_map())
        oracle = induced_trace_norm_lower_bound(transpose_map(),
                                                restarts=100, seed=2)
        assert res.value == pytest.approx(oracle, abs=1e-5)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_bounds_bracket_value(self, rng):
        res = diamond_norm(random_superop(rng, 2, 2))
        assert res.lower_bound <= res.value <= res.upper_bound
        assert res.upper_bound - res.lower_bound <= 1e-5

    def test_unitary_invariance(self, rng):
        phi = random_superop(rng, 2, 2)
        u = random_unitary(rng, 2)
        rotated = SuperOp.from_kraus(
            [u @ k for k in phi.rep.left], [u @ k for k in phi.rep.right]
        )
        assert diamond_norm(rotated).value == pytest.approx(
            diamond_norm(phi).value, abs=1e-6 * (1 + diamond_norm(phi).value)
        )

    def test_scaling(self, rng):
        phi = random_superop(rng, 2, 2)
        scaled = SuperOp.from_choi(-2.5 * superop.to_choi(phi), 2, 2)
        assert diamond_norm(scaled).value == pytest.approx(
            2.5 * diamond_norm(phi).value, abs=1e-5
        )

    def test_route_agreement_random_pairs(self, rng):
        for _ in range(5):
            c0 = random_channel(rng, 2, 2)
            c1 = random_channel(rng, 2, 2)
            diff = SuperOp.difference(c0, c1)
            v_cd = channel_diff_norm(diff).value
            v_gen = diamond_norm(diff).value
            assert abs(v_cd - v_gen) <= 1e-5

    def test_oracle_is_lower_bound(self, rng):
        phi = random_superop(rng, 2, 2)
        val = diamond_norm(phi).value
        lb = induced_trace_norm_lower_bound(phi, restarts=10, seed=7)
        assert lb <= val + 1e-6

    def test_multiplicative_on_products(self, rng):
        a = random_superop(rng, 2, 2, scale=0.7)
        b = random_superop(rng, 2, 2, scale=0.7)
        va = diamond_norm(a).value
        vb = diamond_norm(b).value
        vab = diamond_norm(tensor(a, b)).value
        assert vab == pytest.approx(va * vb, abs=1e-5 * (1 + va * vb))

    def test_bad_method(self):
        for method in ("magic", "channel-diff"):
            with pytest.raises(InvalidInputError, match="unknown method"):
                diamond_norm(SuperOp.identity(2), NormOptions(method=method))


class TestOptionValidation:
    @pytest.mark.parametrize("name", ["gap_tol", "feas_tol"])
    @pytest.mark.parametrize("value", [np.inf, 0.0, -1e-8, np.nan, True])
    def test_rejects_tolerance(self, name, value):
        with pytest.raises(InvalidInputError,
                           match=f"{name} must be finite and positive"):
            NormOptions(**{name: value})

    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    def test_rejects_max_iter(self, value):
        with pytest.raises(InvalidInputError, match="max_iter"):
            NormOptions(max_iter=value)

    def test_fixed_after_construction(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            NormOptions().gap_tol = 0.0

    def test_one_iteration_accepted(self):
        res = diamond_norm(random_superop(np.random.default_rng(1), 2, 2,
                                          terms=3), NormOptions(max_iter=1))
        assert res.solver_stats.status == "max_iterations"
        assert res.lower_bound <= res.upper_bound

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-6, True, "1e-6", None,
                                     1e-6 + 0j])
    def test_verifier_rejects_tolerance(self, tol):
        """A real finite ``tol >= 0``, checked as ``SolveOptions`` checks its
        tolerances: a bool, a string, ``None`` or a complex is rejected."""
        phi = SuperOp.identity(2)
        cert = diamond_norm(phi).certificate
        with pytest.raises(InvalidInputError,
                           match="tol must be finite and non-negative"):
            verify_certificate(phi, cert, tol)

    def test_verifier_accepts_zero_tolerance(self):
        phi = SuperOp.identity(2)
        check = verify_certificate(phi, diamond_norm(phi).certificate, 0.0)
        assert (check.lower, check.upper) == pytest.approx((1.0, 1.0))


class TestCbSpectral:
    def test_identity(self):
        res = cb_spectral_norm(SuperOp.identity(2))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.method.endswith("_of_adjoint")

    def test_transpose_self_adjoint(self):
        assert cb_spectral_norm(transpose_map()).value == pytest.approx(
            2.0, abs=1e-6
        )

    def test_definitional(self, rng):
        phi = random_superop(rng, 2, 2)
        assert cb_spectral_norm(phi).value == diamond_norm(adjoint(phi)).value


class TestCertificates:
    def test_fresh_certificate_valid(self, rng):
        phi = random_superop(rng, 2, 2)
        res = diamond_norm(phi)
        check = verify_certificate(phi, res.certificate)
        assert check.valid
        assert check.upper - check.lower < 1e-5

    def test_channel_diff_certificate_valid(self, rng):
        diff = SuperOp.difference(random_channel(rng, 2, 2),
                                  random_channel(rng, 2, 2))
        res = channel_diff_norm(diff)
        assert isinstance(res.certificate, Certificate)
        check = verify_certificate(diff, res.certificate)
        assert check.valid
        assert check.lower <= res.value <= check.upper + 1e-9

    def test_perturbed_z_rejected(self, rng):
        phi = random_superop(rng, 2, 2)
        res = diamond_norm(phi)
        cert = res.certificate
        bad_rho = np.array(cert.rho, dtype=complex)
        vals, vecs = np.linalg.eigh(bad_rho)
        bad_rho -= (vals[0] + 1e-3) * np.outer(vecs[:, 0], vecs[:, 0].conj())
        check = verify_certificate(phi, dataclasses.replace(cert, rho=bad_rho))
        assert not check.valid
        assert any("not PSD" in v for v in check.violations)

    def test_zero_map_trivial_certificate(self):
        zero = SuperOp.from_kraus([np.zeros((2, 2))])
        res = diamond_norm(zero)
        check = verify_certificate(zero, res.certificate)
        assert check.valid
        assert check.lower == 0.0 and check.upper == 0.0

    def test_dimension_mismatch(self, rng):
        phi2 = random_superop(rng, 2, 2)
        phi3 = random_superop(rng, 3, 3)
        cert = diamond_norm(phi2).certificate
        with pytest.raises(InvalidInputError):
            verify_certificate(phi3, cert)

    def test_pair_shape_mismatch(self):
        """A ``Y1`` whose shape is not the map's Choi matrix's."""
        cert = diamond_norm(SuperOp.identity(2)).certificate
        bad = dataclasses.replace(cert, y1=np.zeros((3, 3)))
        with pytest.raises(InvalidInputError, match="dimensions"):
            verify_certificate(SuperOp.identity(2), bad)

    def test_unknown_certificate_type(self):
        with pytest.raises(InvalidInputError):
            verify_certificate(SuperOp.identity(2), object())

    def test_wrong_pair_flagged(self, rng):
        """A certificate of one map fails the block test on another."""
        phi = random_superop(rng, 2, 2)
        other = random_superop(rng, 2, 2)
        cert = diamond_norm(phi).certificate
        check = verify_certificate(other, cert)
        assert not check.valid
        assert check.violations[0].startswith(
            "[[Y0, -J], [-J^dag, Y1]] has eigenvalue -")

    def test_general_violations_in_order(self):
        """A certificate broken in every constraint: each check reports
        once, in a fixed order, with its residual.  On the identity of C^2,
        ``J`` has the eigenvalues 2, 0, 0, 0, so the block matrix has the
        smallest eigenvalue ``(3 - sqrt(17)) / 2`` of ``[[1, -2], [-2, 2]]``."""
        cert = Certificate(rho=np.diag([1.5, -0.25]), sigma=np.diag([-1.0, 3.0]),
                           y0=np.eye(4), y1=2 * np.eye(4))
        check = verify_certificate(SuperOp.identity(2), cert)
        assert not check.valid
        assert check.violations == (
            "Tr(rho) deviates from 1 by 2.500e-01",
            "rho is not PSD",
            "Tr(sigma) deviates from 1 by 1.000e+00",
            "sigma is not PSD",
            "[[Y0, -J], [-J^dag, Y1]] has eigenvalue -5.616e-01",
        )
        # The positive parts diag(1.5, 0) and diag(0, 3) keep one entry of
        # J each; Tr_Y Y0 = 2 and Tr_Y Y1 = 4 (times 1).
        assert (check.lower, check.upper) == pytest.approx(
            (np.sqrt(4.5), np.sqrt(8.0)), rel=1e-15)

    @pytest.mark.parametrize("rho", [np.eye(2) / 2, np.diag([1.0, 0.0])])
    def test_zero_channel_diff_certificate_rejected(self, rho):
        """The all-zero format-"1" certificate of the identity minus the
        unitary channel of ``diag(1, e^{i 1e-7})`` converts to ``Y0 = Y1 =
        -J``, whose block matrix has eigenvalue ``-2e-7``: tiny, but as
        large as ``|J|_2``, so it is a violation."""
        phi = phase_diff(1e-7)
        zero = matrix_to_json(np.zeros((4, 4)))
        cert, _ = certificate_from_json({
            "version": "1", "kind": "channel_diff", "norm": "diamond",
            "rho": matrix_to_json(rho), "w": zero, "z": zero}, phi)
        check = verify_certificate(phi, cert)
        assert not check.valid
        assert check.violations[0].startswith(
            "[[Y0, -J], [-J^dag, Y1]] has eigenvalue -2.000e-07")

    def test_inflated_certificate_rejected(self):
        """``Y0 = 1e4 1``, ``Y1 = 0`` for the identity of C^2: the block's
        smallest eigenvalue, about ``-4 / 1e4``, is tiny against the block's
        own scale but not against ``|J|_2 = 2``, which ``Y0`` cannot
        inflate.  Its bracket ``[1, 0]`` is a violation too, which a
        ``tol`` loose enough to pass the block test still reports."""
        phi = SuperOp.identity(2)
        cert = Certificate(np.eye(2) / 2, np.eye(2) / 2, 1e4 * np.eye(4),
                           np.zeros((4, 4)))
        inverted = "lower bound 1.000e+00 exceeds upper bound 0.000e+00"
        check = verify_certificate(phi, cert)
        assert not check.valid
        assert check.violations[0].startswith(
            "[[Y0, -J], [-J^dag, Y1]] has eigenvalue -4.000e-04")
        assert check.violations[1:] == (inverted,)
        assert (check.lower, check.upper) == pytest.approx((1.0, 0.0))
        check = verify_certificate(phi, cert, tol=1e-2)
        assert check.violations == (inverted,)

    def test_channel_diff_violations_in_order(self):
        """A format-"1" channel-difference certificate is checked in its
        Choi form: ``rho`` and ``sigma`` its ``rho`` transposed, ``Y0 = Y1 =
        2 Z - J``.  On the identity minus the completely dephasing channel
        of C^2, ``J`` couples entries 0 and 3 only, and ``Z = diag(-2, 0,
        0, 0)`` gives the block the eigenvalue ``-2 - 2 sqrt(2)``."""
        dephasing = SuperOp.from_kraus([np.diag([1.0, 0.0]),
                                        np.diag([0.0, 1.0])])
        phi = SuperOp.difference(SuperOp.identity(2), dephasing)
        cert, target = certificate_from_json({
            "version": "1", "kind": "channel_diff", "norm": "diamond",
            "rho": matrix_to_json(np.diag([1.5, -0.25])),
            "w": matrix_to_json(np.diag([-1.0, 3.0, 0.0, 0.0])),
            "z": matrix_to_json(np.diag([-2.0, 0.0, 0.0, 0.0]))}, phi)
        assert target is phi
        y = np.diag([-4.0, 0.0, 0.0, 0.0]) - to_choi(phi)
        assert np.array_equal(cert.y0, y) and np.array_equal(cert.y1, y)
        check = verify_certificate(phi, cert)
        assert not check.valid
        assert check.violations == (
            "Tr(rho) deviates from 1 by 2.500e-01",
            "rho is not PSD",
            "Tr(sigma) deviates from 1 by 2.500e-01",
            "sigma is not PSD",
            "[[Y0, -J], [-J^dag, Y1]] has eigenvalue -4.828e+00",
        )


ASCENT_SHAPES = [(3, 3), (2, 4), (4, 2), (3, 5), (5, 3)]


@lru_cache(maxsize=None)
def _solved_pair(seed, n, m, scale=1.0):
    """Stinespring pair of a rank-2 general map and the solver's last
    iterate on its general SDP (whatever its status)."""
    phi = random_superop(np.random.default_rng(seed), n, m, terms=2,
                         scale=scale)
    pair = to_stinespring(phi)
    return phi, pair, solve(build_general_sdp(pair), SolveOptions())


def _warm_states(pair, sol):
    n = pair.a.shape[1]
    x1 = pair.b.conj().T @ sol.X_opt[1] @ pair.b
    return (_normalized_state(sol.X_opt[0], n),
            _normalized_state((x1 + x1.conj().T) / 2, n))


def _witness_value(pair, uv):
    """The ascent's value at its unit vectors ``uv = (u, v)``: the trace
    norm of ``t s^dag`` over the environment, ``t = (A (x) 1) u`` and ``s =
    (B (x) 1) v`` (the lower bound of the certificate, by the Choi matrix)."""
    at, bt, _ = dnorm._sweep_operands(pair)
    t, s = (np.swapaxes(x @ y, 1, 2).reshape(-1, x.shape[1])
            for x, y in zip((at, bt), uv))
    return np.linalg.svd(t @ s.conj().T, compute_uv=False).sum()


def _cold_converged(pair, sol):
    """Witness value of the ascent started with ``v = u`` and run to
    convergence."""
    rho0, _ = _warm_states(pair, sol)
    return _witness_value(pair, _ascent_loop(
        *_sweep_operands(pair), _purification(rho0), _purification(rho0),
        max_iters=5000)[:2])


def _repaired(pair, sol):
    """``_solve_route``'s result and ``Z`` from the solver's last iterate
    ``sol``: its states polished by the ascent, its ``Z`` in the
    certificate.  (``sol`` is of the unscaled pair; its states and the
    certificate do not see the scale.)"""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dnorm, "_ascent_general", _give_up)
        mp.setattr(dnorm, "solve", lambda problem, options: sol)
        return dnorm._solve_route(pair, NormOptions())


class TestAscentWarmStart:
    @pytest.mark.parametrize("n,m", ASCENT_SHAPES)
    def test_three_sweeps_reach_converged_value(self, n, m):
        for seed in range(12):
            _, pair, sol = _solved_pair(seed, n, m)
            rho0, rho1 = _warm_states(pair, sol)
            short = _witness_value(pair, _ascent_loop(
                *_sweep_operands(pair), _purification(rho0),
                _purification(rho1), max_iters=3)[:2])
            ref = _cold_converged(pair, sol)
            assert abs(short - ref) <= 1e-8 * ref, (seed, short, ref)

    @pytest.mark.parametrize("n,m", ASCENT_SHAPES)
    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_lower_bound_not_below_cold_start(self, n, m, scale):
        # scale 1e-3 on both Kraus families scales the map by 1e-6.
        for seed in range(12):
            _, pair, sol = _solved_pair(seed, n, m, scale)
            lower = _repaired(pair, sol)[0].lower_bound
            ref = _cold_converged(pair, sol)
            assert lower >= ref * (1 - 1e-12), (seed, lower, ref)

    def _assert_exactly_feasible(self, phi, cert):
        j = to_choi(phi)
        block = np.block([[cert.y0, -j], [-j.conj().T, cert.y1]])
        assert min_eigenvalue(block) >= -1e-12 * spectral_norm(block)
        for state in (cert.rho, cert.sigma):
            assert abs(np.trace(state).real - 1.0) <= 1e-12
        assert verify_certificate(phi, cert).valid

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_one_dimensional_input(self, m):
        for seed in range(4):
            phi, pair, sol = _solved_pair(seed, 1, m)
            self._assert_exactly_feasible(
                phi, _repaired(pair, sol)[0].certificate)

    def test_output_state_at_any_scale(self):
        _, pair, sol = _solved_pair(0, 3, 3)
        rho1 = _warm_states(pair, sol)[1]
        assert not np.allclose(rho1, np.eye(3) / 3)
        x1 = pair.b.conj().T @ sol.X_opt[1] @ pair.b
        for c in (1e-12, 1e12):
            scaled = _normalized_state(c * (x1 + x1.conj().T) / 2, 3)
            assert np.allclose(scaled, rho1, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 3), (2, 4)])
    def test_zero_output_state_falls_back(self, n, m):
        phi, pair, sol = _solved_pair(0, n, m)
        no_w = dataclasses.replace(
            sol, X_opt=[sol.X_opt[0], np.zeros_like(sol.X_opt[1])])
        assert np.array_equal(_warm_states(pair, no_w)[1], np.eye(n) / n)
        res = _repaired(pair, no_w)[0]
        self._assert_exactly_feasible(phi, res.certificate)
        assert res.lower_bound >= _cold_converged(pair, sol) * (1 - 1e-12)


def _solver_start_polish(pair, sol):
    """``_polish`` as it was before the face start: sweeps from the solve's
    own states alone."""
    rho0, rho1 = _warm_states(pair, sol)
    u, v, _ = _ascent_loop(*_sweep_operands(pair), _purification(rho0),
                           _purification(rho1))
    return u, v, "start solver"


def _face_map(kind, seed):
    """A map of the face-start tests: a channel pair at d = 3 (Choi rank 6,
    outside the ascent rule), or a rank-2 4x2 or 5x3 map."""
    rng = np.random.default_rng(seed)
    if kind == "cp-d3":
        return SuperOp.difference(random_channel(rng, 3, 3, env=3),
                                  random_channel(rng, 3, 3, env=3))
    return random_superop(rng, *{"g2-4x2": (4, 2), "g2-5x3": (5, 3)}[kind])


def _polished(monkeypatch, phi, polish=None):
    """``diamond_norm(phi)`` on the solve route, with ``polish`` in place of
    ``_polish`` if given, and the number of sweeps it made."""
    sweeps, real = [], dnorm._ascent_sweep
    with monkeypatch.context() as mp:
        mp.setattr(dnorm, "_ascent_general", _give_up)
        mp.setattr(dnorm, "_ascent_sweep",
                   lambda *args: sweeps.append(1) or real(*args))
        if polish is not None:
            mp.setattr(dnorm, "_polish", polish)
        return diamond_norm(phi), len(sweeps)


class TestFaceStart:
    """The polish after a solve also starts on the solver's optimal face:
    the states with their eigenvalues below ``sqrt(rel_gap)`` of the
    largest dropped, where the interior iterate keeps O(mu) weight."""

    MAPS = [(kind, seed) for kind in ("cp-d3", "g2-4x2", "g2-5x3")
            for seed in range(4)]

    def test_fewer_sweeps_same_lower_end(self, monkeypatch):
        """Over these maps (optimal states of rank 2 of 3 for ``cp-d3``
        seeds 0 and 1, full rank for seeds 2 and 3, rank 1 or 2 elsewhere)
        the sweeps fall from 194 to 115: 72 to 17 on ``cp-d3`` seeds 0 and 1
        and 61 to 35 on the 5x3 maps.  The 4x2 maps contract as fast from
        either start (50 and 52 sweeps).  The lower end is as high to the sweeps'
        stopping tolerance, 1e-13 relative."""
        face_total = solver_total = 0
        for kind, seed in self.MAPS:
            phi = _face_map(kind, seed)
            face, face_sweeps = _polished(monkeypatch, phi)
            solver, solver_sweeps = _polished(monkeypatch, phi,
                                              _solver_start_polish)
            assert face.lower_bound >= solver.lower_bound * (1 - 1e-13), \
                (kind, seed)
            assert verify_certificate(phi, face.certificate).valid
            face_total += face_sweeps
            solver_total += solver_sweeps
        assert face_total <= 0.7 * solver_total, (face_total, solver_total)

    @pytest.mark.parametrize("kind,seed,ratio", [("cp-d3", 20, 3.6e-3),
                                                 ("g2-4x2", 4, 6.8e-4)])
    def test_small_true_eigenvalue_kept(self, monkeypatch, kind, seed, ratio):
        """An optimal state with a true eigenvalue at ``ratio`` of the
        largest keeps it: the cut is relative to the solve's gap, and the
        solver's own start remains a candidate.  A fixed cut at 1e-2 without
        that fallback leaves widths of 4e-6 and 2e-6 here."""
        phi = _face_map(kind, seed)
        res, _ = _polished(monkeypatch, phi)
        solver, _ = _polished(monkeypatch, phi, _solver_start_polish)
        assert res.upper_bound - res.lower_bound <= 1e-8 * res.upper_bound
        assert res.lower_bound >= solver.lower_bound * (1 - 1e-13)
        vals = [np.linalg.eigvalsh(s)[::-1] for s in
                (res.certificate.rho, res.certificate.sigma)]
        smallest = min(v[v > 1e-6 * v[0]][-1] / v[0] for v in vals)
        assert smallest == pytest.approx(ratio, rel=0.05)

    def test_verbose_line(self, capsys):
        """Under ``verbose`` the polish prints one line: the start it kept,
        the eigenvalues it cut, its sweeps, the lower end, and the solver's
        own last status."""
        res = diamond_norm(_face_map("cp-d3", 0), NormOptions(verbose=True))
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("polish")]
        assert len(lines) == 1
        words = lines[0].split()
        assert words[1:3] == ["start", "face"] and words[3:5] == ["cut", "2"]
        assert words[5] == "sweeps" and int(words[6]) >= 3
        assert words[7] == "lower" and float(words[8]) == pytest.approx(
            res.lower_bound, rel=1e-9)
        assert words[9:] == ["solver", "optimal"]


def _einsum_sweep(at, bt, u, v):
    """``U^dag`` (indexed (Y, W, y, w)) and the sweep operator of the ascent
    by explicit ``einsum`` contractions: the oracle of the matrix products in
    ``dnorm``."""
    n, nw = u.shape
    t = np.einsum("yzx,xw->yzw", at, u)
    s = np.einsum("yzx,xw->yzw", bt, v)
    mm = np.einsum("yzw,YzW->ywYW", t, s.conj())
    p, _, qh = np.linalg.svd(mm.reshape(mm.shape[0] * mm.shape[1], -1))
    uh = (p @ qh).conj().T.reshape(mm.shape)
    kmat = np.tensordot(
        bt.conj(), np.einsum("YWyw,yzx->YzWxw", uh, at), axes=([0, 1], [0, 1])
    ).reshape(n * nw, n * nw)
    return uh, kmat


class TestSweepProducts:
    """The sweep's contractions are matrix products; they match the
    ``einsum`` oracle at the ascent's start (``u = v``, maximally mixed), where
    the cross operator of a map of full Choi rank is invertible, so its polar
    factor is unique."""

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 4), (6, 6), (9, 9)])
    def test_matches_einsum(self, n, m):
        if n == 9:  # r = 81: two full-rank 3x3 maps
            rng = np.random.default_rng(12)
            phi = tensor(*(random_superop(rng, 3, 3, terms=9)
                           for _ in range(2)))
        else:
            phi = random_superop(np.random.default_rng(n + 10 * m), n, m,
                                 terms=n * m)
        pair = to_stinespring(phi)
        r = pair.dim_env
        assert r == n * m
        at, bt, h = dnorm._sweep_operands(pair)
        u = np.eye(n) / np.sqrt(n)
        uh_ref, k_ref = _einsum_sweep(at, bt, u, u)
        uh = dnorm._polar_adjoint(at, bt, u, u)
        k = dnorm._sweep_operator(h, uh)
        for got, ref in ((uh, uh_ref.reshape(uh.shape)), (k, k_ref)):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def _assert_same_result(a, b):
    """Bitwise equality of two NormResults."""
    assert (a.value, a.lower_bound, a.upper_bound, a.method) == \
        (b.value, b.lower_bound, b.upper_bound, b.method)
    assert a.solver_stats == b.solver_stats and a.warnings == b.warnings
    ca, cb = a.certificate, b.certificate
    assert type(ca) is type(cb)
    for f in ("rho", "sigma", "y0", "y1"):
        assert np.array_equal(getattr(ca, f), getattr(cb, f))


class TestAutoRoute:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (4, 4)])
    def test_route_follows_newton_system_size(self, n, m):
        """Whatever the size of either SDP's Newton system, a channel pair
        takes the general route (ascent or IPM), ties at ``r = mn``
        included, and its bracket overlaps the channel-difference
        oracle's."""
        # Two Kraus-rank-k channels: generically rank J(phi) = min(2k, nm).
        rng = np.random.default_rng(100 * n + m)
        for k in range(1, n * m + 1):
            diff = SuperOp.difference(random_channel(rng, n, m, env=k),
                                      random_channel(rng, n, m, env=k))
            assert to_stinespring(diff).dim_env == min(2 * k, n * m)
            res = diamond_norm(diff)
            assert res.method == "general_sdp", k
            # "auto" (the default) and "general" name the same route.
            _assert_same_result(
                res, diamond_norm(diff, NormOptions(method="general")))
            assert isinstance(res.certificate, Certificate)
            assert verify_certificate(diff, res.certificate).valid
            ref = channel_diff_norm(diff)
            assert res.lower_bound <= ref.upper_bound, k
            assert ref.lower_bound <= res.upper_bound, k


class TestOneChoiMatrix:
    @pytest.mark.parametrize("route", ["general", "channel-diff"])
    def test_channel_pair_forms_choi_once(self, monkeypatch, rng, route):
        """``SuperOp.difference`` stores ``J(phi0) - J(phi1)`` as a Choi
        matrix, which ``diamond_norm`` (and the channel-difference oracle)
        reads once, without re-testing the channels that
        ``SuperOp.difference`` has already tested."""
        diff = SuperOp.difference(random_channel(rng, 2, 2),
                                  random_channel(rng, 2, 2))
        calls = {"to_choi": 0, "is_channel": 0}
        for name in calls:
            real = getattr(superop, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (superop, dnorm):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        norm = diamond_norm if route == "general" else channel_diff_norm
        res = norm(diff)
        assert res.method == route.replace("-", "_") + "_sdp"
        assert calls == {"to_choi": 1, "is_channel": 0}


def _give_up(pair, options):
    """Stands in for ``_ascent_general``: the solve takes every map."""
    return None


def _stop_solves(monkeypatch, stop=6):
    """Make every solve stop at iteration ``stop`` and report
    ``numerical_failure``: a failed solve by construction, whose last
    iterate is far from optimal."""
    real = dnorm.solve

    def stopped(problem, options):
        sol = real(problem, dataclasses.replace(options, max_iter=stop))
        assert sol.iterations == stop
        return dataclasses.replace(sol, status="numerical_failure")

    monkeypatch.setattr(dnorm, "solve", stopped)


class TestNumericalFailure:
    def test_failed_solve_returns_verified_bracket(self, monkeypatch):
        # Rank-2 maps take the ascent: pin the solve route.
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        maps = [(seed, n, m) for n, m in ASCENT_SHAPES for seed in range(3)]
        refs = [diamond_norm(_solved_pair(seed, n, m)[0])
                for seed, n, m in maps]
        _stop_solves(monkeypatch)
        for (seed, n, m), ref in zip(maps, refs):
            phi = _solved_pair(seed, n, m, 1e-3)[0]
            res = diamond_norm(phi)
            # The polish can certify the stopped solve's bracket to gap_tol,
            # which makes it optimal; a wider one keeps the solver's status.
            if res.upper_bound - res.lower_bound <= 1e-8 * res.upper_bound:
                assert res.solver_stats.status == "optimal"
                assert res.warnings == ()
            else:
                assert res.solver_stats.status == "numerical_failure"
                assert res.warnings == (
                    "solver status numerical_failure; bounds widened",)
            check = verify_certificate(phi, res.certificate)
            assert check.valid
            assert (check.lower, check.upper) == pytest.approx(
                (res.lower_bound, res.upper_bound), rel=1e-12, abs=0)
            # Homogeneity: scale 1e-3 on both Kraus families scales the
            # norm by 1e-6.
            assert ref.solver_stats.status == "optimal"
            assert res.lower_bound <= 1e-6 * ref.upper_bound * (1 + 1e-6)
            assert res.upper_bound >= 1e-6 * ref.lower_bound * (1 - 1e-6)

    def test_rebalance_after_failed_solve(self, monkeypatch):
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        # Stopped at iteration 6, this map's bracket is certified to gap_tol.
        _stop_solves(monkeypatch, stop=4)
        phi, pair, _ = _solved_pair(0, 3, 3, 1e-3)
        res = diamond_norm(phi)
        assert res.solver_stats.status == "numerical_failure"
        out = rebalance_stinespring(pair, 1e-9)
        prod = spectral_norm(out.a) * spectral_norm(out.b)
        assert res.lower_bound * (1 - 1e-12) <= prod
        assert prod <= res.upper_bound * (1 + 1e-12) + 1e-9

    @pytest.mark.parametrize("route,side,block", [
        ("general", "X_opt", 0), ("general", "Y_opt", 1),
        ("channel-diff", "X_opt", 1), ("channel-diff", "Y_opt", 0),
    ])
    def test_non_finite_iterate_raises(self, monkeypatch, rng, route, side,
                                       block):
        """A non-finite last iterate raises, on ``diamond_norm`` and on the
        channel-difference oracle."""
        module, norm = (dnorm, diamond_norm) if route == "general" else \
            (conftest, channel_diff_norm)
        real = module.solve

        def broken(problem, options=None):
            sol = real(problem, options)
            blocks = list(getattr(sol, side))
            blocks[block] = np.full_like(blocks[block], np.nan)
            return dataclasses.replace(sol, status="numerical_failure",
                                       **{side: blocks})

        monkeypatch.setattr(module, "solve", broken)
        diff = SuperOp.difference(random_channel(rng, 2, 2),
                                  random_channel(rng, 2, 2))
        with pytest.raises(NumericalFailureError):
            norm(diff)


class TestRebalance:
    def test_identity_already_balanced(self):
        pair = to_stinespring(SuperOp.identity(2))
        out = rebalance_stinespring(pair, 1e-3)
        assert spectral_norm(out.a) * spectral_norm(out.b) <= 1 + 1e-3

    def test_scaled_pair_recovers(self):
        pair = to_stinespring(SuperOp.identity(2))
        skew = StinespringPair(2.0 * pair.a, pair.b / 2.0, pair.dim_env)
        out = rebalance_stinespring(skew, 1e-3)
        assert spectral_norm(out.a) * spectral_norm(out.b) <= 1 + 1e-3

    def test_random_cp_map(self, rng):
        ks = [0.8 * (rng.standard_normal((2, 2)) +
                     1j * rng.standard_normal((2, 2))) for _ in range(2)]
        phi = SuperOp.from_kraus(ks)
        pair = to_stinespring(phi)
        value = diamond_norm(phi).value
        eps = 1e-4
        out = rebalance_stinespring(pair, eps)
        prod = spectral_norm(out.a) * spectral_norm(out.b)
        assert value - 1e-8 <= prod <= value + eps
        # The rescaled pair still represents the same map.
        rebuilt = SuperOp.from_stinespring(out.a, out.b, out.dim_env)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = 1.0
                assert spectral_norm(
                    apply(rebuilt, e) - apply(phi, e)
                ) < 1e-9 * (1 + value)

    def test_rejects_zero_map(self):
        zero = np.zeros((2, 2))
        with pytest.raises(InvalidInputError):
            rebalance_stinespring(StinespringPair(zero, zero, 1), 1e-3)

    def test_rejects_nonpositive_eps(self):
        pair = to_stinespring(SuperOp.identity(2))
        with pytest.raises(InvalidInputError):
            rebalance_stinespring(pair, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, True, "1e-6",
                                     None, 1e-6 + 0j])
    def test_rejects_unusable_eps(self, eps):
        """Rejected up front, before any solve, naming ``eps``; a bool, a
        string, ``None`` or a complex is no real number."""
        pair = to_stinespring(SuperOp.identity(2))
        with pytest.raises(InvalidInputError,
                           match="eps must be finite and positive"):
            rebalance_stinespring(pair, eps)


def test_channel_values_are_one(rng):
    for _ in range(5):
        res = diamond_norm(random_channel(rng, 2, 2))
        assert res.value == pytest.approx(1.0, abs=1e-6)


def test_solver_stats_surface(monkeypatch, rng):
    monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
    res = diamond_norm(random_superop(rng, 2, 2))
    assert res.solver_stats.status == "optimal"
    assert res.solver_stats.iterations > 0
    assert res.warnings == ()


class TestEqualityForm:
    """Both norm SDPs (the general one and the channel-difference oracle)
    hold the constraints every optimum makes tight with ``=``, so those
    blocks carry no slack."""

    def test_declarations(self, rng):
        """The general SDP has its ``X`` and ``W`` blocks alone; the oracle
        keeps the paper's ``W <= 1 (x) rho`` by its declared slack block,
        embedded on constraint block 1 with zero objective, and holds ``Tr
        rho = 1`` without one."""
        pair = to_stinespring(random_superop(rng, 2, 3))
        prob = build_general_sdp(pair)
        assert prob.var_structure.blocks == (2, 3 * pair.dim_env)
        assert prob.embedded == (None, (1, 3))
        chan = build_channel_diff_sdp(*channel_diff_data(
            random_channel(rng, 2, 2), random_channel(rng, 2, 2)))
        assert chan.var_structure.blocks == (2, 4, 4)
        assert chan.embedded == (None, (1, 1), (1, 1))
        assert not chan.obj[2].any()

    @pytest.mark.parametrize("route", ["general", "channel-diff"])
    def test_matches_undeclared_build(self, route, rng):
        """The same maps in the paper's form, every constraint block held
        with ``<=`` by a declared slack block, and every other block with
        dense rows, reach the same optimum."""
        for _ in range(3):
            if route == "general":
                pair = to_stinespring(random_superop(rng, 2, 3))
                prob, psi = build_general_sdp(pair), norm_sdp_psi(pair)
                held = (0, 1)
            else:
                prob = build_channel_diff_sdp(*channel_diff_data(
                    random_channel(rng, 2, 3), random_channel(rng, 2, 3)))
                psi, held = channel_diff_psi, (0,)
            oracle = with_slacks(dense_oracle(psi, prob), held)
            assert oracle.rows[1] is not None
            assert oracle.embedded[len(prob.embedded):] == tuple(
                (c, 1) for c in held)
            got, want = solve(prob), solve(oracle)
            assert got.status == want.status == "optimal"
            for a, b in ((got.primal_value, want.primal_value),
                         (got.dual_value, want.dual_value)):
                assert a == pytest.approx(b, rel=1e-7)

    @staticmethod
    def _shifted_lam(pair, sol):
        """The squared bound of the additive repair of the dual: Z + delta
        1, with delta the worst violation plus the rounding allowance ``8 eps
        m r |B|^2``."""
        m = pair.a.shape[0] // pair.dim_env
        z = _psd_part(sol.Y_opt[1])
        bbdag = pair.b @ pair.b.conj().T
        shift = max(0.0, -min_eigenvalue(kron(np.eye(m), z) - bbdag)) + \
            8 * np.finfo(float).eps * m * pair.dim_env * spectral_norm(pair.b) ** 2
        z = z + shift * np.eye(pair.dim_env)
        return spectral_norm(pair.a.conj().T @ kron(np.eye(m), z) @ pair.a)

    def test_rescaled_z_never_above_shift(self, rng):
        """The solver's ``Z`` in the Choi form bounds the norm by
        ``lambda_max(A^dag (1 (x) Z) A) lambda_max(B^dag (1 (x) Z^-1) B)``,
        the bound of ``Z`` rescaled to dominate ``B B^dag``; it is never
        above the bound of the additive repair of ``Z``.

        The 3x2 map at scale 1e2 is the exception: its raw-scale solve ends
        ``numerical_failure`` with a ``Z`` that already dominates ``B
        B^dag``, so the repair adds only its rounding allowance, and the two
        bounds coincide in exact arithmetic (to 1e-16 relative, in 50-digit
        arithmetic).  The certificate's own allowance, the factor ``1 + 8
        (mn + r) eps`` on ``Y0``, is the larger of the two, so that one
        comparison takes it off."""
        for n, m, scale in [(2, 2, 1.0), (2, 3, 1e-3), (3, 3, 1.0),
                            (3, 2, 1e2), (4, 4, 1.0), (1, 3, 10.0)]:
            phi = random_superop(rng, n, m, scale=scale)
            pair = to_stinespring(phi)
            sol = solve(build_general_sdp(pair))
            res, z = _repaired(pair, sol)
            z_inv = np.linalg.inv(z)
            rescaled = np.prod([max_eigenvalue(
                x.conj().T @ kron(np.eye(m), y) @ x)
                for x, y in ((pair.a, z), (pair.b, z_inv))])
            assert res.upper_bound ** 2 == pytest.approx(rescaled, rel=1e-12)
            allowance = 1 + 8 * (m * n + pair.dim_env) * np.finfo(float).eps \
                if (n, m, scale) == (3, 2, 1e2) else 1.0
            assert res.upper_bound ** 2 / allowance <= \
                self._shifted_lam(pair, sol)
            check = verify_certificate(phi, res.certificate)
            assert check.valid, check.violations
            assert (check.lower, check.upper) == pytest.approx(
                (res.lower_bound, res.upper_bound), rel=1e-12)
            assert check.lower <= check.upper

    @pytest.mark.parametrize("make", [
        lambda rng: SuperOp.identity(2),
        lambda rng: SuperOp.identity(3),
        lambda rng: SuperOp.difference(
            SuperOp.from_kraus([random_unitary(rng, 3)]),
            SuperOp.from_kraus([random_unitary(rng, 3)])),
        lambda rng: SuperOp.difference(
            SuperOp.identity(2),
            SuperOp.from_kraus([np.diag([1.0, np.exp(0.3j)])])),
        lambda rng: random_superop(rng, 3, 3, scale=10),
        lambda rng: random_superop(rng, 2, 4, scale=10),
    ])
    def test_value_inside_bracket(self, make, rng):
        phi = make(rng)
        for norm, target in ((diamond_norm, phi),
                             (cb_spectral_norm, adjoint(phi))):
            res = norm(phi)
            assert res.lower_bound <= res.value <= res.upper_bound
            check = verify_certificate(target, res.certificate)
            assert check.valid and check.lower <= check.upper

    def test_fidelity_d8_full_rank_without_solve(self, monkeypatch):
        """Two full-rank d=8 states, as in the fid-d8-full benchmark pool:
        the general route solves them in closed form, with no solve."""
        rng = np.random.default_rng([9014709, 6, 0])
        p, q = (g @ g.conj().T / np.linalg.norm(g) ** 2
                for g in (random_complex(rng, (8, 8)) for _ in range(2)))
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        res = fidelity.fidelity_sdp(p, q)
        assert res.fidelity == pytest.approx(
            fidelity.fidelity_closed_form(p, q), abs=1e-12)

    @pytest.mark.parametrize("smallest", [0.0, -1e-3])
    def test_singular_or_indefinite_dual_repaired(self, smallest):
        """A dual Z that is singular or indefinite has its eigenvalues
        lifted to a rounding floor: the certificate is still valid and
        sound, if loose."""
        phi, pair, sol = _solved_pair(0, 2, 2)
        vals, vecs = np.linalg.eigh(sol.Y_opt[1])
        vals[0] = smallest
        sol = dataclasses.replace(
            sol, Y_opt=[sol.Y_opt[0], (vecs * vals) @ vecs.conj().T])
        check = verify_certificate(phi, _repaired(pair, sol)[0].certificate)
        assert check.valid, check.violations
        norm = diamond_norm(phi).value
        assert check.lower <= norm * (1 + 1e-9)
        assert check.upper >= norm * (1 - 1e-9)


def _no_solve(*args, **kwargs):
    raise AssertionError("unexpected interior-point solve")


class TestTrivialInput:
    """The general route on a map with input dimension one is solved in
    closed form (Uhlmann, Alberti): the norm of ``X -> Tr_Z(A X B^dag)``
    from ``C^1`` is ``|Tr_Z(a b^dag)|_1``, and it needs no solve."""

    @pytest.mark.parametrize("m,r", [(1, 1), (1, 3), (2, 1), (2, 3),
                                     (3, 2), (4, 4)])
    def test_diamond_norm(self, monkeypatch, rng, m, r):
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        for _ in range(3):
            a, b = (random_complex(rng, (m * r, 1)) for _ in range(2))
            phi = SuperOp.from_stinespring(a, b, r)
            ref = np.linalg.svd(partial_trace(a @ b.conj().T, (m, r)),
                                compute_uv=False).sum()
            res = diamond_norm(phi)
            assert res.method == "general_sdp"
            assert res.solver_stats.iterations == 0
            assert res.solver_stats.status == "optimal" and not res.warnings
            for bound in (res.lower_bound, res.upper_bound, res.value):
                assert bound == pytest.approx(ref, rel=1e-12)
            check = verify_certificate(phi, res.certificate)
            assert check.valid, check.violations

    @pytest.mark.parametrize("n,r", [(1, 2), (2, 1), (3, 2), (4, 3)])
    def test_cb_spectral_norm(self, monkeypatch, rng, n, r):
        """``X -> Tr(A X B^dag)`` has the adjoint ``y -> y A^dag B`` from
        ``C^1``, whose norm is ``|A^dag B|_1``."""
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        for _ in range(3):
            a, b = (random_complex(rng, (r, n)) for _ in range(2))
            phi = SuperOp.from_stinespring(a, b, r)
            ref = np.linalg.svd(a.conj().T @ b, compute_uv=False).sum()
            res = cb_spectral_norm(phi)
            assert res.method == "general_sdp_of_adjoint"
            assert res.value == pytest.approx(ref, rel=1e-12)
            assert (res.upper_bound - res.lower_bound) <= 1e-12 * ref
            assert verify_certificate(adjoint(phi), res.certificate).valid

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
    def test_homogeneous(self, monkeypatch, rng, c):
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        a, b = (random_complex(rng, (6, 1)) for _ in range(2))
        ref = diamond_norm(SuperOp.from_stinespring(a, b, 3)).value
        res = diamond_norm(SuperOp.from_stinespring(c * a, b, 3))
        assert res.value == pytest.approx(c * ref, rel=1e-13)

    def test_singular_marginal_is_solved(self, rng):
        """A pair whose ``Tr_Y(A A^dag)`` is singular (here ``A`` has rank 1
        on a 3-dimensional environment) has no optimal dual to write down;
        it goes to the interior-point solve, and its rebalancing still
        reaches the norm."""
        a = np.zeros((6, 1), dtype=complex)
        a[:2, 0] = [1.0, 1.0j]
        b = random_complex(rng, (6, 1))
        pair = StinespringPair(a, b, 3)
        res = dnorm._solve_route(pair, NormOptions())[0]
        assert res.solver_stats.iterations > 0
        norm = diamond_norm(SuperOp.from_stinespring(a, b, 3)).value
        assert res.lower_bound <= norm * (1 + 1e-12)
        assert res.upper_bound >= norm * (1 - 1e-12)


class TestBracketOrder:
    def test_inverted_by_rounding_before(self):
        """The shift repair carries a rounding allowance: with a zero
        shift this map's upper end came out an ulp below its lower end."""
        res = diamond_norm(random_superop(np.random.default_rng(3), 1, 1,
                                          terms=1))
        assert res.lower_bound <= res.value <= res.upper_bound

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1),
                                     (2, 2), (2, 3), (3, 3)])
    def test_full_rank_and_trivial_input(self, n, m):
        for seed in range(10):
            phi = random_superop(np.random.default_rng(seed), n, m,
                                 terms=n * m)
            for norm in (diamond_norm, cb_spectral_norm):
                res = norm(phi)
                assert res.lower_bound <= res.value <= res.upper_bound, \
                    (seed, norm.__name__)


class TestRankCut:
    """The route's Stinespring pair drops the Choi singular values below
    ``RANK_TOL`` of the largest; the certificate adds the largest one it
    drops to ``Y0`` and ``Y1``, so its bracket holds for the whole map."""

    SMALL = 5e-10

    def test_cb_spectral_norm_of_choi_input(self):
        """``{|0><0|, sqrt(5e-10) |0><1|}`` in Choi form: ``adjoint`` keeps
        the small component, and the bracket the norm ``1 + 5e-10``."""
        e00, e01 = np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
        phi = SuperOp.from_choi(to_choi(SuperOp.from_kraus(
            [e00, np.sqrt(self.SMALL) * e01])), 2, 2)
        res = cb_spectral_norm(phi)
        assert res.lower_bound <= 1 + self.SMALL <= res.upper_bound
        assert verify_certificate(adjoint(phi), res.certificate).valid

    @pytest.mark.parametrize("choi_form", [False, True])
    def test_diamond_norm_small_kraus_term(self, choi_form):
        """``{|0><0|, sqrt(5e-10) |1><0|}``, of norm ``1 + 5e-10``: the
        lower end saw the small term while the upper end did not."""
        e00, e10 = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
        phi = SuperOp.from_kraus([e00, np.sqrt(self.SMALL) * e10])
        if choi_form:
            phi = SuperOp.from_choi(to_choi(phi), 2, 2)
        res = diamond_norm(phi)
        assert res.lower_bound <= 1 + self.SMALL <= res.upper_bound
        assert verify_certificate(phi, res.certificate).valid

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    @pytest.mark.parametrize("term", ["cp", "negative", "non-hermitian"])
    @pytest.mark.parametrize("convert", ["kraus", "stinespring"])
    def test_conversions_keep_small_term(self, convert, term, scale):
        """The public conversions work at rounding level: the Choi forms of
        ``X -> |0><0| X |0><0| + s |1><0| X |0><1|``, ``s = +-5e-10`` (norm
        ``1 + 5e-10``), and of ``X -> |0><0| X (|0><0| + 5e-10 |1><1|)``,
        times ``scale``, convert with both terms, and the converted map's
        bracket holds the norm; the last map has Choi rank one."""
        e00, e10 = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
        small = np.sqrt(self.SMALL) * e10
        left, right, norm, rank = {
            "cp": ([e00, small], [e00, small], 1 + self.SMALL, 2),
            "negative": ([e00, small], [e00, -small], 1 + self.SMALL, 2),
            "non-hermitian": ([e00, self.SMALL * e00],
                              [e00, np.diag([0.0, 1.0])],
                              np.sqrt(1 + self.SMALL ** 2), 1)}[term]
        c = np.sqrt(scale)
        j = to_choi(SuperOp.from_kraus([c * k for k in left],
                                       [c * k for k in right]))
        phi = SuperOp.from_choi(j, 2, 2)
        if convert == "kraus":
            back = superop.to_kraus(phi)
            assert len(back.rep.left) == rank
        else:
            pair = to_stinespring(phi)
            assert pair.dim_env == rank
            back = SuperOp(2, 2, pair)
        assert np.max(np.abs(to_choi(back) - j)) <= 1e-15 * scale
        res = diamond_norm(back)
        assert res.lower_bound <= scale * norm <= res.upper_bound
        assert verify_certificate(back, res.certificate).valid

    def test_survey_never_inverted(self):
        """Rank-2 3x3 maps plus one Kraus term whose Choi matrix is 1e-13
        to 3e-10 of theirs, as Kraus and Choi inputs, both norms."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = random_superop(rng, 3, 3, terms=2)
            rel = 10 ** rng.uniform(-13, np.log10(3e-10))
            left, right = random_complex(rng, (3, 3)), \
                random_complex(rng, (3, 3))
            t = np.sqrt(rel * spectral_norm(to_choi(base)) /
                        (np.linalg.norm(left) * np.linalg.norm(right)))
            phi = SuperOp.from_kraus([*base.rep.left, t * left],
                                     [*base.rep.right, t * right])
            for p in (phi, SuperOp.from_choi(to_choi(phi), 3, 3)):
                for norm in (diamond_norm, cb_spectral_norm):
                    res = norm(p)
                    assert res.lower_bound <= res.upper_bound, \
                        (seed, norm.__name__)


class TestScaleNormalization:
    """The general route runs on its pair scaled by powers of two to
    spectral norms in [1, 2) and maps the result back exactly, so a map's
    scale moves no tolerance: tiny and large maps get the bracket of the
    unscaled map."""

    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6,
                                   1e8])
    def test_homogeneous(self, monkeypatch, c):
        """Rank-2 3x3 maps on the solve (the ascent would take them).  At
        ``c`` = 1e8 the block matrix's rounding-level eigenvalue (-1.2e-6 at
        seed 8) passes, as ``verify_certificate`` takes it relative to
        ``|J|_2``."""
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        for seed in range(3, 9):
            for norm, target in ((diamond_norm, lambda phi: phi),
                                 (cb_spectral_norm, adjoint)):
                ref = norm(random_superop(np.random.default_rng(seed), 3, 3,
                                          terms=2))
                phi = random_superop(np.random.default_rng(seed), 3, 3,
                                     terms=2, scale=np.sqrt(c))
                res = norm(phi)
                assert res.value / c == pytest.approx(ref.value, rel=1e-12)
                assert res.solver_stats.status == "optimal"
                assert res.solver_stats.gap <= 1e-8 * (c * ref.value) ** 2
                check = verify_certificate(target(phi), res.certificate)
                assert check.valid, (seed, norm.__name__, check.violations)

    def test_tiny_map_is_not_zero(self, monkeypatch):
        """Only an exactly zero Choi matrix takes the zero result (on the
        solve, which the rank-2 map would skip)."""
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        ref = diamond_norm(random_superop(np.random.default_rng(3), 2, 2))
        res = diamond_norm(random_superop(np.random.default_rng(3), 2, 2,
                                          scale=1e-8))
        assert res.value / 1e-16 == pytest.approx(ref.value, rel=1e-12)

    @pytest.mark.parametrize("k", range(3, 16))
    def test_small_phase_difference(self, k):
        theta = 10.0 ** -k
        res = diamond_norm(phase_diff(theta))
        assert res.method == "general_sdp"
        assert res.value == pytest.approx(2 * np.sin(theta / 2), rel=1e-12)
        assert res.upper_bound - res.lower_bound <= 1e-12 * res.upper_bound


def _full_rank(seed, n, m, scale=1.0):
    return random_superop(np.random.default_rng(seed), n, m, terms=n * m,
                          scale=scale)


def _ascent_rule(n, m, r=None):
    """A map of Choi rank ``r`` (``mn`` by default) takes the ascent at
    ``n = 1``, when ``ASCENT_SWEEPS`` sweeps cost less than one Newton
    system, and at ``r <= 2`` for ``n, m <= 5``."""
    r = r or m * n
    return n == 1 or dnorm.ASCENT_SWEEPS * ((m * n) ** 3 + n ** 6) <= \
        (1 + r * r) ** 3 or (r <= 2 and max(n, m) <= 5)


class TestCertifiedAscent:
    """A map under the rule (the cost rule, or Choi rank at most 2 for
    ``n, m <= 5``) gets its bracket from the alternating ascent and Alberti's
    dual ``P^-1 # Q`` of its marginals, with no solve; every other map, and
    any map on which the ascent gives up, from the solve."""

    def test_rule(self, monkeypatch, rng):
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        for n, m, r in [(4, 4, 16), (4, 4, 16), (4, 4, 1), (3, 3, 2),
                        (5, 5, 2), (2, 5, 1)]:
            assert _ascent_rule(n, m, r)
            res = diamond_norm(random_superop(rng, n, m, terms=r))
            assert res.method == "general_sdp" and not res.warnings
            assert res.solver_stats.status == "optimal"
            assert res.solver_stats.iterations == 0
        monkeypatch.undo()
        # The ascent forms P^-1 # Q after its first sweep.
        monkeypatch.setattr(dnorm, "_geometric_mean", _no_solve)
        shapes = [(2, 2, 4), (3, 2, 6), (6, 6, 2), (3, 3, 3), (6, 2, 2),
                  (7, 1, 1)]
        others = [random_superop(rng, n, m, terms=r) for n, m, r in shapes]
        low, full = (SuperOp.difference(random_channel(rng, 3, 3, env=k),
                                        random_channel(rng, 3, 3, env=k))
                     for k in (2, 9))
        assert not any(_ascent_rule(*shape) for shape in shapes + [(3, 3, 4)])
        for phi in others + [low]:
            assert diamond_norm(phi).solver_stats.iterations > 0
        # A channel pair of full Choi rank is admitted like any other map.
        monkeypatch.undo()
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        assert _ascent_rule(3, 3, 9)
        assert diamond_norm(full).solver_stats.iterations == 0

    @pytest.mark.parametrize("n,m,r", [(n, m, r) for n in range(2, 6)
                                       for m in range(2, 6) for r in (1, 2)])
    def test_small_rank(self, monkeypatch, n, m, r):
        """A map of Choi rank 1 or 2 with ``n, m <= 5``, which a dozen solver
        iterations of Python overhead would bracket, is bracketed by the
        ascent alone, at any scale, within the solve's bracket.  The map is
        the first of the shape survey's ``default_rng(12)``; the ascent gives
        up on 12 of that survey's 512 maps of these shapes (all of rank 2),
        which take the solve (``test_give_up_returns_solve_result``)."""
        assert _ascent_rule(n, m, r)
        for c in (1.0, 1e-6, 1e6):
            phi = random_superop(np.random.default_rng(12), n, m, terms=r,
                                 scale=np.sqrt(c))
            monkeypatch.setattr(dnorm, "solve", _no_solve)
            res = diamond_norm(phi)
            assert res.upper_bound - res.lower_bound <= \
                1e-10 * res.upper_bound, c
            check = verify_certificate(phi, res.certificate)
            assert check.valid, (c, check.violations)
            monkeypatch.undo()
            monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
            ref = diamond_norm(phi)
            monkeypatch.undo()
            assert ref.solver_stats.iterations > 0
            assert res.lower_bound <= ref.upper_bound, c
            assert ref.lower_bound <= res.upper_bound, c

    @pytest.mark.parametrize("d", [4, 5])
    def test_channel_pair_below_full_rank_solves(self, monkeypatch, d):
        """Two channels of Kraus rank ``d`` differ by a map of Choi rank
        ``2d < d^2``: it takes the general route, outside the rule, so it
        reaches the solve without a sweep."""
        outcomes, real = [], dnorm._ascent_general

        def no_sweep(pair, options):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dnorm, "_ascent_sweep", _no_solve)
                outcomes.append(real(pair, options))
            return outcomes[-1]

        monkeypatch.setattr(dnorm, "_ascent_general", no_sweep)
        rng = np.random.default_rng(d)
        diff = SuperOp.difference(random_channel(rng, d, d, env=d),
                                  random_channel(rng, d, d, env=d))
        res = diamond_norm(diff)
        assert not _ascent_rule(d, d, 2 * d) and outcomes == [None]
        assert res.method == "general_sdp"
        assert to_stinespring(diff).dim_env == 2 * d
        assert res.solver_stats.iterations > 0
        assert verify_certificate(diff, res.certificate).valid

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_full_rank_channel_pairs(self, monkeypatch, d):
        """Two channels of full Kraus rank differ by a map of Choi rank
        ``d^2``: it is bracketed by the ascent alone, and the bracket
        overlaps the channel-difference oracle's."""
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        rng = np.random.default_rng(d)
        diff = SuperOp.difference(random_channel(rng, d, d, env=d * d),
                                  random_channel(rng, d, d, env=d * d))
        res = diamond_norm(diff)
        assert res.method == "general_sdp"
        assert to_stinespring(diff).dim_env == d * d
        assert res.solver_stats.iterations == 0
        assert res.upper_bound - res.lower_bound <= 1e-10 * res.upper_bound
        check = verify_certificate(diff, res.certificate)
        assert check.valid, check.violations
        monkeypatch.undo()
        ref = channel_diff_norm(diff)
        assert ref.solver_stats.status == "optimal"
        assert verify_certificate(diff, ref.certificate).valid
        assert res.lower_bound <= ref.upper_bound
        assert ref.lower_bound <= res.upper_bound

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6)
                                     for m in range(2, 6) if _ascent_rule(n, m)])
    def test_brackets_overlap_solve(self, monkeypatch, n, m):
        phi = _full_rank(n + 10 * m, n, m)
        res = diamond_norm(phi)
        assert res.solver_stats.iterations == 0
        check = verify_certificate(phi, res.certificate)
        assert check.valid, check.violations
        assert res.upper_bound - res.lower_bound <= 1e-10 * res.upper_bound
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        ref = diamond_norm(phi)
        assert ref.solver_stats.iterations > 0
        assert res.lower_bound <= ref.upper_bound
        assert ref.lower_bound <= res.upper_bound

    @pytest.mark.parametrize("n,m,r", [(3, 3, 9), (4, 3, 12), (6, 6, 18),
                                       (3, 5, 2)],
                             ids=["3-3", "4-3", "6-6-r18", "3-5-r2"])
    def test_give_up_returns_solve_result(self, monkeypatch, n, m, r):
        """Where the optimal input state is rank-deficient, the geometric
        mean diverges, and where the width contracts too slowly for the
        budget (the rank-2 3x5 map); there the ascent gives up, and the
        solve's result is returned bit for bit."""
        assert _ascent_rule(n, m, r)
        outcomes, real = [], dnorm._ascent_general

        def recorded(pair, options):
            outcomes.append(real(pair, options))
            return outcomes[-1]

        monkeypatch.setattr(dnorm, "_ascent_general", recorded)
        rng = np.random.default_rng(12)
        for _ in range(16):
            phi = random_superop(rng, n, m, terms=r)
            res = diamond_norm(phi)
            if outcomes[-1] is None:
                break
        assert outcomes[-1] is None and res.solver_stats.iterations > 0
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        ref = diamond_norm(phi)
        assert [float(x).hex() for x in (res.lower_bound, res.upper_bound,
                                         res.value)] == \
            [float(x).hex() for x in (ref.lower_bound, ref.upper_bound,
                                      ref.value)]
        _assert_same_result(res, ref)

    @pytest.mark.parametrize("r", [30, 35])
    def test_below_full_rank(self, monkeypatch, r):
        """A 6x6 map below full Choi rank, which the IPM took at ``m_con``
        ``1 + r^2``, is bracketed by the ascent alone."""
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        phi = random_superop(np.random.default_rng(r), 6, 6, terms=r)
        res = diamond_norm(phi)
        assert to_stinespring(phi).dim_env == r
        assert res.upper_bound - res.lower_bound <= 1e-10 * res.upper_bound
        check = verify_certificate(phi, res.certificate)
        assert check.valid, check.violations

    @pytest.mark.parametrize("n,m,r,gives_up", [
        (4, 4, 16, False), (5, 5, 13, True), (3, 3, 9, False),
        (2, 2, 2, False)])
    def test_dual_every_fifth_sweep(self, monkeypatch, n, m, r, gives_up):
        """The dual bound ``P^-1 # Q`` is formed at every fifth sweep (and the
        budget's last), whether the ascent converges or gives up, and so is
        at most one Newton step from it, none where ``r^2 + 2 < 2 n^2``."""
        calls = {"_ascent_sweep": 0, "_geometric_mean": 0, "_newton_dual": 0}
        for name in calls:
            def counted(*args, _real=getattr(dnorm, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(dnorm, name, counted)
        pair = to_stinespring(
            random_superop(np.random.default_rng(12), n, m, terms=r))
        res = dnorm._ascent_general(pair, NormOptions())
        assert (res is None) == gives_up
        sweeps, means = calls["_ascent_sweep"], calls["_geometric_mean"]
        assert sweeps >= 5 and 0 < means <= -(-sweeps // 5) + 1, calls
        assert (calls["_newton_dual"] > 0) == (r * r + 2 >= 2 * n * n), calls
        assert calls["_newton_dual"] <= means, calls

    def test_full_rank_d8(self, monkeypatch):
        """``m_con`` would be 4097 on the solve."""
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        phi = _full_rank(8, 8, 8)
        res = diamond_norm(phi)
        assert res.upper_bound - res.lower_bound <= 1e-10 * res.upper_bound
        assert verify_certificate(phi, res.certificate).valid

    def test_multiplicative(self, monkeypatch):
        """``tensor(phi, psi)`` of two full-rank 3x3 maps has ``r`` = 81."""
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        rng = np.random.default_rng(12)
        phi, psi = (random_superop(rng, 3, 3, terms=9) for _ in range(2))
        both = tensor(phi, psi)
        res, ra, rb = (diamond_norm(x) for x in (both, phi, psi))
        assert to_stinespring(both).dim_env == 81
        assert verify_certificate(both, res.certificate).valid
        assert res.lower_bound <= ra.upper_bound * rb.upper_bound
        assert ra.lower_bound * rb.lower_bound <= res.upper_bound

    @pytest.mark.parametrize("s", [1e-4, 1e-2, 1e2, 1e3, 1e4])
    def test_homogeneous(self, monkeypatch, s):
        """Both Kraus families scaled by ``s`` scale the map by ``s^2``."""
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        ref = diamond_norm(_full_rank(4, 4, 4)).value
        phi = _full_rank(4, 4, 4, scale=s)
        res = diamond_norm(phi)
        assert res.value == pytest.approx(s ** 2 * ref, rel=1e-12)
        assert verify_certificate(phi, res.certificate).valid

    def test_verbose_prints_each_sweep(self, capsys):
        res = diamond_norm(_full_rank(0, 4, 4), NormOptions(verbose=True))
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("sweep") for line in lines)
        width = float(lines[-1].split()[-1])
        assert width <= 1e-10 and res.solver_stats.iterations == 0


def _full_rank_pair(d):
    rng = np.random.default_rng(d)
    return SuperOp.difference(random_channel(rng, d, d, env=d * d),
                              random_channel(rng, d, d, env=d * d))


class TestNewtonDual:
    """Where the optimal states are full rank, one Newton step from Alberti's
    ``Z`` per evaluation, toward ``A^dag (1 (x) Z) A = c0 1`` and ``B^dag (1
    (x) Z^-1) B = c1 1``, closes the bracket in about half the sweeps that
    ``Z`` alone needs: 45 to 50 on these 4x4 maps, 30 on these pairs.  With
    the Anderson-mixed sweeps of full Choi rank, all six certify at the
    second evaluation (20 to 25 plain sweeps, 15 on the pairs)."""

    @pytest.mark.parametrize("make,limit", [
        (lambda: _full_rank(0, 4, 4), 10),
        (lambda: adjoint(_full_rank(0, 4, 4)), 10),
        (lambda: _full_rank(1, 4, 4), 10),
        (lambda: adjoint(_full_rank(1, 4, 4)), 10),
        (lambda: _full_rank_pair(3), 10),
        (lambda: _full_rank_pair(4), 10)],
        ids=["4x4-0", "4x4-0-adjoint", "4x4-1", "4x4-1-adjoint", "cp-d3",
             "cp-d4"])
    def test_certifies_in_fewer_sweeps(self, monkeypatch, make, limit):
        phi = make()
        sweeps, real = [], dnorm._ascent_sweep

        def counted(*args):
            sweeps.append(1)
            return real(*args)

        monkeypatch.setattr(dnorm, "_ascent_sweep", counted)
        monkeypatch.setattr(dnorm, "solve", _no_solve)
        res = diamond_norm(phi)
        monkeypatch.undo()
        assert len(sweeps) <= limit
        assert res.solver_stats.iterations == 0
        assert res.upper_bound - res.lower_bound <= 1e-10 * res.upper_bound
        check = verify_certificate(phi, res.certificate)
        assert check.valid, check.violations
        monkeypatch.setattr(dnorm, "_ascent_general", _give_up)
        ref = diamond_norm(phi, NormOptions(gap_tol=1e-11))
        assert ref.solver_stats.iterations > 0
        assert verify_certificate(phi, ref.certificate).valid
        assert res.lower_bound <= ref.upper_bound
        assert ref.lower_bound <= res.upper_bound

    def test_inverse_from_the_same_eigendecompositions(self, rng):
        """``_geometric_mean`` returns ``Z^-1 = P # Q^-1`` with ``Z``."""
        p, q = (conftest.random_psd(rng, 5) for _ in range(2))
        z, z_inv = dnorm._geometric_mean(p, q)
        assert np.allclose(z @ z_inv, np.eye(5), atol=1e-10)
        assert np.allclose(z @ p @ z, q, atol=1e-10 * spectral_norm(q))
        assert dnorm._geometric_mean(p, np.zeros((5, 5)))[1] is None

    def test_step_is_second_order(self):
        """From ``Z`` at distance ``eps`` of a solution of the conditions, the
        step leaves a residual of order ``eps^2``."""
        pair = to_stinespring(_full_rank(0, 4, 4))
        at, bt, _ = dnorm._sweep_operands(pair)
        gram_a = dnorm._gram(at)

        def step(z):
            z_inv = np.linalg.inv(z)
            g = dnorm._dual_bound(at, bt, z, z_inv)[1]
            residual = max(spectral_norm(x - np.trace(x).real / 4 * np.eye(4))
                           for x in g)
            return dnorm._newton_dual(at, bt, gram_a, z, z_inv, g)[1], \
                residual

        z = dnorm._ascent_general(pair, NormOptions())[2]
        for _ in range(3):
            z, residual = step(z)
        assert residual <= 1e-12 * spectral_norm(z)
        # Residuals of 0.07 and 0.007 fall to 6e-5 and 5e-7.
        h = random_complex(np.random.default_rng(0), (16, 16))
        for eps in (1e-3, 1e-4):
            z_eps = z + eps * spectral_norm(z) * (h + h.conj().T) / 8
            residual = step(z_eps)[1]
            assert residual > 1e-2 * eps * spectral_norm(z)
            assert step(step(z_eps)[0])[1] <= residual ** 2


def _ascent_runs(monkeypatch):
    """Runs of the certified ascent and of the polish loop, recorded during
    the calls that follow: per run its sweep operands, its start ``(u,
    v)``, its sweeps ``(u_in, v_in, u, v, value)`` and its Anderson mixes
    ``(x, g)``."""
    runs, active = [], []
    real_sweep, real_mix = dnorm._ascent_sweep, dnorm._anderson

    def recorded(real, start):
        def run(*args, **kwargs):
            runs.append({"start": start(*args), "sweeps": [], "mixes": []})
            active.append(runs[-1])
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()
        return run

    def max_mixed(pair, options):
        n = pair.a.shape[1]
        u = _purification(np.eye(n) / n)
        return _sweep_operands(pair), (u, u)

    def sweep(*args):
        out = real_sweep(*args)
        for run in active:
            run["sweeps"].append((*args[3:], *out))
        return out

    monkeypatch.setattr(dnorm, "_ascent_general",
                        recorded(dnorm._ascent_general, max_mixed))
    monkeypatch.setattr(dnorm, "_ascent_loop", recorded(
        dnorm._ascent_loop, lambda at, bt, h, u, v, *_: ((at, bt, h), (u, v))))
    monkeypatch.setattr(dnorm, "_ascent_sweep", sweep)
    monkeypatch.setattr(dnorm, "_anderson", lambda hist, x, g: active[-1][
        "mixes"].append((x, g)) or real_mix(hist, x, g))
    return runs


def _bits(*arrays):
    return [np.asarray(x).tobytes() for x in arrays]


class TestAndersonAscent:
    """At full Choi rank (``r = mn``, ``n > 1``) each sweep's output is
    given the phase that makes ``<u_in, u>`` positive and mixed with the
    last five by type-II Anderson mixing; a sweep that falls more than
    rounding (1e-13 relative) below the best value restarts from the best
    pair.  Every other map, and the polish, sweeps plainly."""

    @pytest.mark.parametrize("n,m,r", [(n, m, r) for n in range(2, 6)
                                       for m in range(2, 6) for r in (1, 2)]
                             + [(3, 3, None)])
    def test_plain_below_full_rank(self, monkeypatch, n, m, r):
        """Against a plain-sweep oracle, ``_ascent_sweep`` in a loop from
        each run's start, bit for bit: the maps of ``test_small_rank`` (on
        the ascent) and a channel pair of Kraus rank 2 at ``d = 3`` (Choi
        rank 4 of 9, solved, then polished)."""
        rng = np.random.default_rng(12)
        phi = random_superop(rng, n, m, terms=r) if r else \
            SuperOp.difference(*(random_channel(rng, 3, 3, env=2)
                                 for _ in range(2)))
        plain = dnorm._ascent_sweep
        runs = _ascent_runs(monkeypatch)
        diamond_norm(phi)
        assert len(runs) == (1 if r else 2) and runs[-1]["sweeps"]
        for run in runs:
            (at, bt, h), (u, v) = run["start"]
            assert not run["mixes"]
            for rec in run["sweeps"]:
                out = plain(at, bt, h, u, v)
                assert _bits(*rec) == _bits(u, v, *out)
                u, v = out[:2]

    def test_repeated_call_same_bits(self):
        phi = _full_rank(0, 4, 4)
        first, second = (diamond_norm(phi) for _ in range(2))
        assert [float(x).hex() for x in (first.lower_bound,
                                         first.upper_bound, first.value)] == \
            [float(x).hex() for x in (second.lower_bound, second.upper_bound,
                                      second.value)]
        assert _bits(*dataclasses.astuple(first.certificate)) == \
            _bits(*dataclasses.astuple(second.certificate))

    @pytest.mark.parametrize("make,falls", [
        (lambda: _weyl_pair(4)[0], False), (lambda: _weyl_pair(5)[0], False),
        (lambda: _full_rank(14, 2, 3), True)], ids=["weyl-4", "weyl-5", "2x3"])
    def test_restarts_only_on_a_fall(self, monkeypatch, make, falls):
        """Every sweep is either mixed, its output aligned to its input, or,
        when its value falls more than rounding below the best so far, a
        restart: the next sweep runs from the best pair.  The Weyl pairs'
        values move by rounding only (falls of about 1e-15 at this seed), so
        they never restart; the 2x3 map's falls 3.3e-7 at sweep 9."""
        phi = make()
        runs = _ascent_runs(monkeypatch)
        res = diamond_norm(phi)
        assert res.solver_stats.iterations == 0 and len(runs) == 1
        sweeps, mixes = runs[0]["sweeps"], runs[0]["mixes"]
        for x, g in mixes:
            overlap = np.vdot(x[0], g[0])
            assert overlap.real > 0 and abs(overlap.imag) <= 1e-14
        best, restarts = (-np.inf,), []
        for i, (_, _, u, v, value) in enumerate(sweeps):
            if value < best[0] * (1 - 1e-13):
                restarts.append(i)
                u_in, v_in = sweeps[i + 1][:2]
                phase = np.vdot(best[1], u_in)
                assert np.allclose(u_in, phase * best[1], rtol=0, atol=1e-14)
                assert np.allclose(v_in, phase * best[2], rtol=0, atol=1e-14)
            elif value > best[0]:
                best = (value, u, v)
        assert len(mixes) + len(restarts) == len(sweeps)
        assert bool(restarts) == falls


class TestSolverFreeReferences:
    """Seeded properties against references that need no solver, or against
    the channel-difference oracle, across scales and tolerances."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("m,terms", [(1, 1), (3, 2), (4, 5)])
    def test_input_dimension_one(self, scale, m, terms):
        """At ``dim_in = 1`` the norm is ``|Phi(1)|_1``."""
        rng = np.random.default_rng(10 * m + terms)
        phi = random_superop(rng, 1, m, terms=terms, scale=np.sqrt(scale))
        ref = np.linalg.svd(apply(phi, np.eye(1)), compute_uv=False).sum()
        res = diamond_norm(phi)
        assert res.lower_bound <= ref * (1 + 1e-12)
        assert ref <= res.upper_bound * (1 + 1e-12)
        assert res.value == pytest.approx(ref, rel=1e-12)
        assert verify_certificate(phi, res.certificate).valid

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n,terms", [(2, 1), (3, 2), (4, 3)])
    def test_output_dimension_one(self, scale, n, terms):
        """At ``dim_out = 1`` the map is the functional ``X -> tr(K X)``, and
        its norm the spectral norm of ``K = J^T``."""
        rng = np.random.default_rng(10 * n + terms)
        phi = random_superop(rng, n, 1, terms=terms, scale=np.sqrt(scale))
        ref = spectral_norm(to_choi(phi))
        res = diamond_norm(phi)
        assert res.lower_bound <= ref * (1 + 1e-12)
        assert ref <= res.upper_bound * (1 + 1e-12)
        assert res.upper_bound - res.lower_bound <= 1e-7 * ref
        assert verify_certificate(phi, res.certificate).valid

    @pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3, 4)
                                     for k in range(1, d + 1)])
    def test_rank_deficient_channel_pairs(self, d, k):
        """Channels of Kraus rank ``k <= d``: the bracket overlaps the
        channel-difference oracle's."""
        rng = np.random.default_rng(100 * d + k)
        diff = SuperOp.difference(random_channel(rng, d, d, env=k),
                                  random_channel(rng, d, d, env=k))
        res, ref = diamond_norm(diff), channel_diff_norm(diff)
        assert verify_certificate(diff, res.certificate).valid
        assert verify_certificate(diff, ref.certificate).valid
        assert res.lower_bound <= ref.upper_bound * (1 + 1e-12)
        assert ref.lower_bound <= res.upper_bound * (1 + 1e-12)
        assert res.upper_bound - res.lower_bound <= 1e-7 * res.upper_bound

    @pytest.mark.parametrize("n,m,r", [(3, 3, 9), (3, 3, 2), (2, 2, 4),
                                       (4, 4, 16), (3, 3, 4), (2, 3, 6)])
    def test_tight_gap_tol(self, n, m, r):
        """At ``gap_tol = 1e-11`` the bracket is sound, overlaps the default
        one, and is ``optimal`` and no wider than ``10 gap_tol``.  The solves
        of (3, 3, 9), (2, 2, 4), (3, 3, 4) and (2, 3, 6) level off above the
        gap test and end ``stalled`` or ``numerical_failure`` within 40
        iterations; their polished brackets are certified to ``gap_tol``,
        which makes them ``optimal``."""
        phi = random_superop(np.random.default_rng(r), n, m, terms=r)
        tight = diamond_norm(phi, NormOptions(gap_tol=1e-11))
        loose = diamond_norm(phi)
        assert verify_certificate(phi, tight.certificate).valid
        assert tight.lower_bound <= loose.upper_bound
        assert loose.lower_bound <= tight.upper_bound
        assert tight.solver_stats.status == "optimal"
        assert tight.solver_stats.iterations <= 40
        assert tight.warnings == ()
        assert tight.upper_bound - tight.lower_bound <= \
            1e-10 * tight.upper_bound

    def test_solver_status_under_verbose(self, capsys):
        """The status a certified bracket replaces stays in the polish's
        ``verbose`` line."""
        phi = random_superop(np.random.default_rng(4), 2, 2, terms=4)
        res = diamond_norm(phi, NormOptions(gap_tol=1e-11, verbose=True))
        assert res.solver_stats.status == "optimal"
        polish = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("polish")]
        assert len(polish) == 1
        assert polish[0].endswith("solver stalled")

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from cbnorm import superop
from cbnorm import dnorm
from cbnorm.dnorm import (
    _ascent_primal,
    _general_certificate_bounds,
    _normalized_state,
    _repair_general_certificate,
    ChannelDiffCertificate,
    GeneralCertificate,
    NormOptions,
    build_channel_diff_sdp,
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

from conftest import (
    channel_diff_data,
    random_channel,
    undeclared,
    random_complex,
    random_superop,
    random_unitary,
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


CHANNEL_DIFF = NormOptions(method="channel-diff")


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
    def test_equal_channels(self, rng):
        c = random_channel(rng, 2, 2)
        res = diamond_norm(SuperOp.difference(c, c))
        assert res.method == "channel_diff_sdp"
        assert res.value <= 1e-7

    def test_unitary_difference_angles(self):
        for theta in (np.pi / 2, np.pi):
            res = diamond_norm(phase_diff(theta), CHANNEL_DIFF)
            assert res.method == "channel_diff_sdp"
            oracle = induced_trace_norm_lower_bound(
                phase_diff(theta), restarts=50, seed=1
            )
            assert res.value == pytest.approx(oracle, abs=1e-6)
            assert res.value == pytest.approx(2 * np.sin(theta / 2), abs=1e-6)

    def test_depolarizing_vs_identity(self, rng):
        kraus = [e / 2.0 for e in (
            np.eye(2), np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]),
        )]
        depol = SuperOp.from_kraus(kraus)
        diff = SuperOp.difference(SuperOp.identity(2), depol)
        res_cd = diamond_norm(diff, CHANNEL_DIFF)
        res_gen = diamond_norm(diff, NormOptions(method="general"))
        oracle = induced_trace_norm_lower_bound(diff, restarts=50, seed=1)
        assert res_cd.value == pytest.approx(res_gen.value, abs=1e-6)
        assert res_cd.value == pytest.approx(oracle, abs=1e-6)

    def test_rejects_non_channels(self):
        """The builder takes a channel difference only; the channels are
        checked where it is formed (``test_difference_requires_channels``)."""
        ident = SuperOp.identity(2)
        with pytest.raises(InvalidInputError):
            build_channel_diff_sdp(ident, to_choi(ident))

    def test_channel_diff_requires_difference_rep(self):
        with pytest.raises(InvalidInputError):
            diamond_norm(SuperOp.identity(2),
                         NormOptions(method="channel-diff"))


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
            v_cd = diamond_norm(diff, CHANNEL_DIFF).value
            v_gen = diamond_norm(diff, NormOptions(method="general")).value
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
        with pytest.raises(InvalidInputError):
            diamond_norm(SuperOp.identity(2), NormOptions(method="magic"))


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
        res = diamond_norm(diff, CHANNEL_DIFF)
        assert isinstance(res.certificate, ChannelDiffCertificate)
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
        bad = GeneralCertificate(pair=cert.pair, rho=bad_rho, w=cert.w,
                                 lam=cert.lam, z=cert.z)
        check = verify_certificate(phi, bad)
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

    def test_unknown_certificate_type(self):
        with pytest.raises(InvalidInputError):
            verify_certificate(SuperOp.identity(2), object())

    def test_wrong_pair_flagged(self, rng):
        phi = random_superop(rng, 2, 2)
        other = random_superop(rng, 2, 2)
        cert = diamond_norm(phi).certificate
        check = verify_certificate(other, cert)
        assert not check.valid
        assert any("reproduce" in v for v in check.violations)

    @pytest.mark.parametrize("i, k", [(2, 0), (1, 1), (0, 2)])
    def test_wrong_pair_flagged_per_block(self, rng, i, k):
        """A map that differs from the pair's only on ``E[i,k]`` is flagged
        on that matrix unit alone."""
        n, m = 3, 2
        phi = random_superop(rng, n, m)
        cert = diamond_norm(phi).certificate
        assert verify_certificate(phi, cert).valid
        unit = np.zeros((n, n))
        unit[i, k] = 1.0
        shifted = SuperOp.from_choi(
            to_choi(phi) + np.kron(1e-3 * random_complex(rng, (m, m)), unit),
            n, m)
        check = verify_certificate(shifted, cert)
        assert check.violations == (
            f"stinespring pair does not reproduce the map on E[{i},{k}]",)


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


def _witness_value(pair, w):
    return np.sqrt(max(0.0, np.vdot(pair.b @ pair.b.conj().T, w).real))


def _cold_converged(pair, sol):
    """Witness value of the ascent started with ``v = u`` and run to
    convergence."""
    rho0, _ = _warm_states(pair, sol)
    return _witness_value(pair, _ascent_primal(pair, rho0, rho0,
                                               max_iters=5000)[1])


class TestAscentWarmStart:
    @pytest.mark.parametrize("n,m", ASCENT_SHAPES)
    def test_three_sweeps_reach_converged_value(self, n, m):
        for seed in range(12):
            _, pair, sol = _solved_pair(seed, n, m)
            rho0, rho1 = _warm_states(pair, sol)
            short = _witness_value(
                pair, _ascent_primal(pair, rho0, rho1, max_iters=3)[1])
            ref = _cold_converged(pair, sol)
            assert abs(short - ref) <= 1e-8 * ref, (seed, short, ref)

    @pytest.mark.parametrize("n,m", ASCENT_SHAPES)
    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_lower_bound_not_below_cold_start(self, n, m, scale):
        # scale 1e-3 on both Kraus families scales the map by 1e-6.
        for seed in range(12):
            _, pair, sol = _solved_pair(seed, n, m, scale)
            cert = _repair_general_certificate(pair, sol)
            lower = _general_certificate_bounds(cert)[0]
            ref = _cold_converged(pair, sol)
            assert lower >= ref * (1 - 1e-12), (seed, lower, ref)

    def _assert_exactly_feasible(self, phi, pair, cert):
        a, r = pair.a, pair.dim_env
        m = a.shape[0] // r
        marg = partial_trace(cert.w, (m, r), side="first") - partial_trace(
            a @ cert.rho @ a.conj().T, (m, r), side="first")
        assert max_eigenvalue(marg) <= 1e-12 * spectral_norm(a) ** 2
        assert abs(np.trace(cert.rho).real - 1.0) <= 1e-12
        assert verify_certificate(phi, cert).valid

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_one_dimensional_input(self, m):
        for seed in range(4):
            phi, pair, sol = _solved_pair(seed, 1, m)
            cert = _repair_general_certificate(pair, sol)
            self._assert_exactly_feasible(phi, pair, cert)

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
        cert = _repair_general_certificate(pair, no_w)
        self._assert_exactly_feasible(phi, pair, cert)
        lower = _general_certificate_bounds(cert)[0]
        assert lower >= _cold_converged(pair, sol) * (1 - 1e-12)


def _assert_same_result(a, b):
    """Bitwise equality of two NormResults."""
    assert (a.value, a.lower_bound, a.upper_bound, a.method) == \
        (b.value, b.lower_bound, b.upper_bound, b.method)
    assert a.solver_stats == b.solver_stats and a.warnings == b.warnings
    ca, cb = a.certificate, b.certificate
    assert type(ca) is type(cb)
    for f in ("rho", "w", "z"):
        assert np.array_equal(getattr(ca, f), getattr(cb, f))


class TestAutoRoute:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (4, 4)])
    def test_route_follows_newton_system_size(self, n, m):
        # Two Kraus-rank-k channels: generically rank J(phi) = min(2k, nm),
        # so the general Newton system (1 + r^2 rows) is the smaller one
        # exactly when 2k < nm.
        rng = np.random.default_rng(100 * n + m)
        for k in range(1, n * m + 1):
            diff = SuperOp.difference(random_channel(rng, n, m, env=k),
                                      random_channel(rng, n, m, env=k))
            assert to_stinespring(diff).dim_env == min(2 * k, n * m)
            res = diamond_norm(diff)
            general = 2 * k < n * m
            assert res.method == ("general_sdp" if general
                                  else "channel_diff_sdp"), k
            if general:
                _assert_same_result(
                    res, diamond_norm(diff, NormOptions(method="general")))
                assert isinstance(res.certificate, GeneralCertificate)
            else:
                _assert_same_result(res, diamond_norm(diff, CHANNEL_DIFF))
            assert verify_certificate(diff, res.certificate).valid


class TestOneChoiMatrix:
    @pytest.mark.parametrize("route", ["general", "channel-diff"])
    def test_channel_pair_forms_choi_once(self, monkeypatch, rng, route):
        """``diamond_norm`` forms ``J(phi0) - J(phi1)`` once, from one Choi
        matrix of each channel, and does not re-test the channels that
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
        res = diamond_norm(diff, NormOptions(method=route))
        assert res.method == route.replace("-", "_") + "_sdp"
        assert calls == {"to_choi": 3, "is_channel": 0}


def _failed_solves():
    """The scale-1e-3 maps of TestAscentWarmStart whose solve ends
    ``numerical_failure`` (15 of the 60 with x86-64 OpenBLAS)."""
    return [(seed, n, m) for n, m in ASCENT_SHAPES for seed in range(12)
            if _solved_pair(seed, n, m, 1e-3)[2].status == "numerical_failure"]


class TestNumericalFailure:
    def test_failed_solve_returns_verified_bracket(self):
        failed = _failed_solves()
        assert failed
        for seed, n, m in failed:
            phi = _solved_pair(seed, n, m, 1e-3)[0]
            res = diamond_norm(phi)
            assert res.solver_stats.status == "numerical_failure"
            assert res.warnings == (
                "solver status numerical_failure; bounds widened",)
            check = verify_certificate(phi, res.certificate)
            assert check.valid
            assert (check.lower, check.upper) == pytest.approx(
                (res.lower_bound, res.upper_bound), rel=1e-12, abs=0)
            # Homogeneity: scale 1e-3 on both Kraus families scales the
            # norm by 1e-6.
            ref = diamond_norm(_solved_pair(seed, n, m)[0])
            assert ref.solver_stats.status == "optimal"
            assert res.lower_bound <= 1e-6 * ref.upper_bound * (1 + 1e-6)
            assert res.upper_bound >= 1e-6 * ref.lower_bound * (1 - 1e-6)

    def test_rebalance_after_failed_solve(self):
        seed, n, m = _failed_solves()[0]
        phi, pair, _ = _solved_pair(seed, n, m, 1e-3)
        res = diamond_norm(phi)
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
        real = dnorm.solve

        def broken(problem, options=None):
            sol = real(problem, options)
            blocks = list(getattr(sol, side))
            blocks[block] = np.full_like(blocks[block], np.nan)
            return dataclasses.replace(sol, status="numerical_failure",
                                       **{side: blocks})

        monkeypatch.setattr(dnorm, "solve", broken)
        diff = SuperOp.difference(random_channel(rng, 2, 2),
                                  random_channel(rng, 2, 2))
        with pytest.raises(NumericalFailureError):
            diamond_norm(diff, NormOptions(method=route))


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


def test_channel_values_are_one(rng):
    for _ in range(5):
        res = diamond_norm(random_channel(rng, 2, 2))
        assert res.value == pytest.approx(1.0, abs=1e-6)


def test_solver_stats_surface(rng):
    res = diamond_norm(random_superop(rng, 2, 2))
    assert res.solver_stats.status == "optimal"
    assert res.solver_stats.iterations > 0
    assert res.warnings == ()


class TestEqualityForm:
    """Both norm SDPs hold the constraints every optimum makes tight with
    ``=``, so those blocks carry no slack."""

    def test_declarations(self, rng):
        pair = to_stinespring(random_superop(rng, 2, 3))
        assert build_general_sdp(pair).equality == (0, 1)
        chan = build_channel_diff_sdp(*channel_diff_data(
            random_channel(rng, 2, 2), random_channel(rng, 2, 2)))
        assert chan.equality == (0,)

    @pytest.mark.parametrize("route", ["general", "channel-diff"])
    def test_matches_undeclared_build(self, route, rng):
        """The same maps with neither declaration, all inequalities and all
        dense rows, reach the same optimum."""
        for _ in range(3):
            if route == "general":
                prob, oracle = undeclared(
                    build_general_sdp,
                    to_stinespring(random_superop(rng, 2, 3)), keep=())
            else:
                prob, oracle = undeclared(
                    build_channel_diff_sdp, *channel_diff_data(
                        random_channel(rng, 2, 3), random_channel(rng, 2, 3)),
                    keep=())
            assert oracle.equality == () and oracle.rows[1] is not None
            got, want = solve(prob), solve(oracle)
            assert got.status == want.status == "optimal"
            for a, b in ((got.primal_value, want.primal_value),
                         (got.dual_value, want.dual_value)):
                assert a == pytest.approx(b, rel=1e-7)

    @staticmethod
    def _shifted_lam(pair, sol):
        """The bound of the additive repair alone: Z + delta 1."""
        m = pair.a.shape[0] // pair.dim_env
        z = dnorm._psd_part(sol.Y_opt[1])
        bbdag = pair.b @ pair.b.conj().T
        shift = max(0.0, -min_eigenvalue(kron(np.eye(m), z) - bbdag))
        z = z + shift * np.eye(pair.dim_env)
        return spectral_norm(pair.a.conj().T @ kron(np.eye(m), z) @ pair.a)

    def test_rescaled_z_never_above_shift(self, rng):
        rescaled = 0
        for n, m, scale in [(2, 2, 1.0), (2, 3, 1e-3), (3, 3, 1.0),
                            (3, 2, 1e2), (4, 4, 1.0), (1, 3, 10.0)]:
            phi = random_superop(rng, n, m, scale=scale)
            pair = to_stinespring(phi)
            sol = solve(build_general_sdp(pair))
            cert = _repair_general_certificate(pair, sol)
            shifted = self._shifted_lam(pair, sol)
            assert cert.lam <= shifted
            rescaled += cert.lam < shifted
            check = verify_certificate(phi, cert)
            assert check.valid, check.violations
            assert check.upper ** 2 == pytest.approx(cert.lam, rel=1e-12)
            assert check.lower <= check.upper
        # The scaled Z is the one kept on most instances.
        assert rescaled >= 3

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
        """A dual Z that is singular or indefinite gets the shift repair: it
        has no inverse square root for the rescaling."""
        phi, pair, sol = _solved_pair(0, 2, 2)
        vals, vecs = np.linalg.eigh(sol.Y_opt[1])
        vals[0] = smallest
        sol = dataclasses.replace(
            sol, Y_opt=[sol.Y_opt[0], (vecs * vals) @ vecs.conj().T])
        check = verify_certificate(phi, _repair_general_certificate(pair, sol))
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
        res = dnorm._solve_route("general", (pair,), NormOptions())
        assert res.solver_stats.iterations > 0
        norm = diamond_norm(SuperOp.from_stinespring(a, b, 3)).value
        assert res.lower_bound <= norm * (1 + 1e-12)
        assert res.upper_bound >= norm * (1 - 1e-12)

"""Acceptance criteria, one test per criterion.

Criteria 1-6 share a single collection of solves (module fixture); criteria
7-8 re-verify every certificate and bound produced there.
"""

import dataclasses

import numpy as np
import pytest

from cbnorm.dnorm import (
    Certificate,
    build_general_sdp,
    cb_spectral_norm,
    diamond_norm,
    rebalance_stinespring,
    verify_certificate,
)
from cbnorm.fidelity import (
    check_alberti_certificate,
    check_proposition,
    fidelity_closed_form,
    fidelity_sdp,
)
from cbnorm.linalg import spectral_norm
from cbnorm.sdp import check_feasibility, solve
from cbnorm.superop import (
    SuperOp,
    adjoint,
    apply,
    induced_trace_norm_lower_bound,
    tensor,
    to_choi,
    to_stinespring,
)

from conftest import (
    channel_diff_norm,
    random_channel,
    random_complex,
    random_density,
    random_psd,
    random_superop,
)

SEED = 20260823


def phase_channel(theta):
    return SuperOp.from_kraus([np.diag([1.0, np.exp(1j * theta)])])


def transpose_map():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    return SuperOp.from_choi(swap, 2, 2)


@pytest.fixture(scope="module")
def solves():
    """All solves for criteria 1-6; each entry pairs the map a certificate
    refers to with its NormResult."""
    rng = np.random.default_rng(SEED)
    data = {"all": []}

    def record(phi_certified, result):
        data["all"].append((phi_certified, result))
        return result

    # Criterion 1: random channels.
    data["channels"] = []
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        c = random_channel(rng, n, m)
        data["channels"].append((c, record(c, diamond_norm(c))))

    # Criterion 2: random channel pairs, diamond_norm against the paper's
    # channel-difference SDP.
    data["routes"] = []
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        diff = SuperOp.difference(random_channel(rng, n, m),
                                  random_channel(rng, n, m))
        cd = record(diff, channel_diff_norm(diff))
        gen = record(diff, diamond_norm(diff))
        data["routes"].append((cd.value, gen.value))

    # Criterion 3: unitary-difference instances against the oracle.
    data["angles"] = []
    for theta in (np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        diff = SuperOp.difference(SuperOp.identity(2), phase_channel(theta))
        res = record(diff, diamond_norm(diff))
        oracle = induced_trace_norm_lower_bound(diff, restarts=50, seed=1)
        data["angles"].append((theta, res.value, oracle))

    # Criterion 4: transpose map.
    t = transpose_map()
    data["transpose"] = (
        record(t, diamond_norm(t)).value,
        induced_trace_norm_lower_bound(t, restarts=100, seed=2),
    )

    # Criterion 5: adjoint duality.
    data["adjoint"] = []
    for _ in range(50):
        phi = random_superop(rng, 2, 2, scale=0.8)
        cb = record(adjoint(phi), cb_spectral_norm(phi))
        dn_adj = record(adjoint(phi), diamond_norm(adjoint(phi)))
        dn = record(phi, diamond_norm(phi))
        cb_adj = record(phi, cb_spectral_norm(adjoint(phi)))
        data["adjoint"].append(
            (cb.value, dn_adj.value, dn.value, cb_adj.value)
        )

    # Criterion 6: multiplicativity on tensor products.
    data["products"] = []
    for _ in range(20):
        a = random_superop(rng, 2, 2, scale=0.7)
        b = random_superop(rng, 2, 2, scale=0.7)
        va = record(a, diamond_norm(a)).value
        vb = record(b, diamond_norm(b)).value
        ab = tensor(a, b)
        vab = record(ab, diamond_norm(ab)).value
        data["products"].append((va, vb, vab))

    return data


def test_criterion_01_channel_normalization(solves):
    for _, res in solves["channels"]:
        assert res.value == pytest.approx(1.0, abs=1e-6)


def test_criterion_02_route_equivalence(solves):
    for v_cd, v_gen in solves["routes"]:
        assert abs(v_cd - v_gen) <= 1e-5


def test_criterion_03_oracle_equality_unitary_differences(solves):
    for theta, value, oracle in solves["angles"]:
        assert abs(value - oracle) <= 1e-5
        assert abs(oracle - 2 * np.sin(theta / 2)) <= 1e-5


def test_criterion_04_transpose_map(solves):
    value, oracle = solves["transpose"]
    assert abs(value - oracle) <= 1e-5
    assert oracle == pytest.approx(2.0, abs=1e-5)


def test_criterion_05_adjoint_duality(solves):
    for cb, dn_adj, dn, cb_adj in solves["adjoint"]:
        assert cb == dn_adj
        assert abs(dn - cb_adj) <= 1e-6


def test_criterion_06_multiplicativity(solves):
    for va, vb, vab in solves["products"]:
        assert abs(vab - va * vb) <= 1e-5 * (1 + va * vb)


def test_criterion_07_certificate_soundness(solves):
    for phi, res in solves["all"]:
        check = verify_certificate(phi, res.certificate)
        assert check.valid, check.violations
        assert check.upper - check.lower <= 1e-5

    # A certificate with one eigenvalue pushed 1e-3 infeasible is rejected.
    phi, res = solves["channels"][0]
    cert = res.certificate
    assert isinstance(cert, Certificate)
    vals, vecs = np.linalg.eigh(cert.rho)
    bad_rho = cert.rho - (vals[0] + 1e-3) * np.outer(vecs[:, 0],
                                                     vecs[:, 0].conj())
    check = verify_certificate(phi, dataclasses.replace(cert, rho=bad_rho))
    assert not check.valid
    assert check.violations


def test_criterion_08_weak_duality_never_violated(solves):
    for phi, res in solves["all"]:
        check = verify_certificate(phi, res.certificate)
        scale = 1.0 + abs(check.lower) + abs(check.upper)
        assert check.lower <= check.upper + 1e-9 * scale


def test_criterion_09_stinespring_rebalancing():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(20):
        ks = [0.7 * random_complex(rng, (2, 2)) for _ in range(2)]
        phi = SuperOp.from_kraus(ks)
        pair = to_stinespring(phi)
        value = diamond_norm(phi).value
        out = rebalance_stinespring(pair, 1e-4)
        prod = spectral_norm(out.a) * spectral_norm(out.b)
        assert prod <= value + 1e-4
        rebuilt = SuperOp.from_stinespring(out.a, out.b, out.dim_env)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = 1.0
                assert spectral_norm(
                    apply(rebuilt, e) - apply(phi, e)
                ) <= 1e-9 * (1 + value)


def test_criterion_10_fidelity_duality():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        p = random_density(rng, d)
        q = random_density(rng, d)
        res = fidelity_sdp(p, q)
        f_cf = fidelity_closed_form(p, q)
        assert abs(res.fidelity_squared - f_cf ** 2) <= 1e-7
        z = res.alberti_z
        lo = float(np.linalg.eigvalsh(z)[0])
        if lo <= 0:
            z = z + (abs(lo) + 1e-13) * np.eye(d)
        bound = check_alberti_certificate(p, q, z)
        assert abs(bound - f_cf ** 2) <= 1e-5


def test_criterion_11_proposition_equivalence():
    rng = np.random.default_rng(SEED + 11)
    checked = 0
    while checked < 200:
        dz = int(rng.integers(2, 4))
        dy = int(rng.integers(1, 4))
        v = random_complex(rng, dy * dz)
        z = random_psd(rng, dz) + 0.1 * np.eye(dz)
        check = check_proposition(v, z)
        if abs(check.inner - 1.0) < 1e-8:
            continue
        assert check.lhs == check.rhs
        checked += 1


def test_criterion_12_solver_convergence_with_strict_dual_point():
    rng = np.random.default_rng(SEED + 12)
    pairs = [to_stinespring(SuperOp.identity(2)),
             to_stinespring(transpose_map())]
    for _ in range(5):
        pairs.append(to_stinespring(random_channel(rng, 2, 2)))
    for pair in pairs:
        problem = build_general_sdp(pair)
        mu = 1.01 * spectral_norm(pair.b) ** 2
        lam = 1.01 * mu * spectral_norm(pair.a) ** 2
        point = [np.array([[lam]]),
                 mu * np.eye(pair.dim_env, dtype=complex)]
        rep = check_feasibility(problem, point, "dual")
        assert rep.max_violation == 0.0
        assert rep.min_eigenvalue > 0.0
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.iterations <= 200
        assert sol.gap <= 1e-8 * (1 + abs(sol.primal_value) +
                                  abs(sol.dual_value))

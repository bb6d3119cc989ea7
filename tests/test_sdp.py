from dataclasses import replace

import numpy as np
import pytest

from cbnorm.dnorm import build_general_sdp, diamond_norm
from cbnorm.errors import InvalidInputError
from cbnorm.linalg import spectral_norm
import cbnorm.sdp as sdp_module
from cbnorm.sdp import (
    BlockStructure,
    SdpProblem,
    SolveOptions,
    _embedded_a_adj,
    _embedded_a_op,
    _embedded_schur,
    _max_steps,
    _nt_scaling,
    _placements,
    block_inner,
    check_feasibility,
    hermitian_basis,
    solve,
    svec,
    unsvec,
)
from cbnorm.superop import StinespringPair, SuperOp, to_stinespring

from conftest import (
    build_channel_diff_sdp,
    built_with_psi,
    channel_diff_data,
    dense_oracle,
    probed_rows,
    random_channel,
    random_complex,
    random_hermitian,
    random_psd,
    random_superop,
)


def identity_problem(n, a=None, b=None, equality=()):
    """maximize <A, X> s.t. X <= B, X >= 0 (X = B with ``equality=(0,)``)."""
    struct = BlockStructure((n,))
    return SdpProblem.from_maps(
        struct, struct,
        lambda blocks: [blocks[0]],
        {0: [(0, 1, None, 1)]},
        [np.eye(n) if a is None else a],
        [np.eye(n) if b is None else b],
        equality=equality,
    )


def trace_problem(a, equality=()):
    """maximize <A, X> s.t. Tr X <= 1, X >= 0 (top eigenvalue of A);
    Tr X = 1 with ``equality=(0,)``."""
    n = a.shape[0]
    return SdpProblem.from_maps(
        BlockStructure((n,)), BlockStructure((1,)),
        lambda blocks: [np.array([[np.trace(blocks[0])]])],
        {0: [(0, n, None, 1)]},
        [a], [np.eye(1)], equality=equality,
    )


class TestVectorization:
    def test_svec_roundtrip(self, rng):
        struct = BlockStructure((3, 2))
        h = struct.random_hermitian(rng)
        back = unsvec(svec(h), struct)
        for x, y in zip(h, back):
            assert np.max(np.abs(x - y)) < 1e-14

    def test_svec_isometric(self, rng):
        struct = BlockStructure((4,))
        h = struct.random_hermitian(rng)
        g = struct.random_hermitian(rng)
        assert svec(h) @ svec(g) == pytest.approx(block_inner(h, g))

    def test_svec_against_basis(self, rng):
        """``svec`` reads ``Re <F_j, M>`` over ``hermitian_basis`` of each
        block, and ``unsvec`` sums ``y_j F_j``."""
        struct = BlockStructure((3, 1, 2))
        h = struct.random_hermitian(rng)
        basis = [f for d in struct.blocks for f in hermitian_basis(d)]
        blocks = [m for m in h for _ in range(len(m) ** 2)]
        assert np.allclose(svec(h), [np.vdot(f, m).real for f, m in
                                     zip(basis, blocks)], rtol=0, atol=1e-14)
        y = rng.standard_normal(struct.dof)
        pos = np.cumsum([0] + [d * d for d in struct.blocks])
        for got, lo, hi in zip(unsvec(y, struct), pos, pos[1:]):
            want = sum(v * f for v, f in zip(y[lo:hi], basis[lo:hi]))
            assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_svec_reads_hermitian_part(self, rng):
        """A block that is not Hermitian counts through its Hermitian part,
        ``Re <F_j, M> = Re <F_j, (M + M^dag) / 2>``."""
        g = random_complex(rng, (3, 3))
        got = svec([g])
        want = [np.vdot(f, g).real for f in hermitian_basis(3)]
        assert np.allclose(got, want, rtol=0, atol=1e-14)
        assert np.allclose(got, svec([(g + g.conj().T) / 2]), rtol=0,
                           atol=1e-14)

    def test_hermitian_basis_orthonormal(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        for i, e in enumerate(basis):
            assert np.allclose(e, e.conj().T)
            for j, f in enumerate(basis):
                assert np.vdot(e, f).real == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-14
                )

    def test_block_structure_validation(self):
        with pytest.raises(InvalidInputError):
            BlockStructure((2, 0))
        assert BlockStructure((2, 3)).dof == 13


class TestFromMaps:
    def test_rejects_non_hermiticity_preserving(self):
        struct = BlockStructure((2,))
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            SdpProblem.from_maps(
                struct, struct,
                lambda blocks: [shear @ blocks[0]],
                {0: [(0, 1, None, 1)]},
                [np.eye(2)], [np.eye(2)],
            )

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
    def test_hermiticity_check_is_relative(self, c):
        """``psi(X) = c M X``, ``M = |0><1|``, breaks Hermiticity at every
        scale ``c``: the deviation is compared with ``psi``'s own output."""
        struct = BlockStructure((2,))
        shear = c * np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="Hermiticity"):
            SdpProblem.from_maps(
                struct, struct,
                lambda blocks: [shear @ blocks[0]],
                {0: [(0, 1, None, 1)]},
                [np.eye(2)], [np.eye(2)],
            )

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_builders_at_scale(self, rng, scale):
        """The norm's builder and the channel-difference oracle build on
        data at map scales 1e-8 and 1e8."""
        pair = to_stinespring(random_superop(rng, 3, 3, terms=4))
        root = np.sqrt(scale)
        prob = build_general_sdp(
            StinespringPair(root * pair.a, root * pair.b, pair.dim_env))
        assert np.allclose(prob.obj[1], scale * pair.b @ pair.b.conj().T,
                           rtol=0, atol=1e-12 * scale)
        phi, j = channel_diff_data(random_channel(rng, 3, 3),
                                   random_channel(rng, 3, 3))
        prob = build_channel_diff_sdp(phi, scale * j)
        assert np.allclose(prob.obj[1], scale * j, rtol=0, atol=1e-12 * scale)

    def test_oracle_builds_on_close_channels(self, rng):
        """Two channels ``1e-9`` apart: ``|J0 - J1|_2`` is about ``1e-9``
        while ``Tr_Y`` rounds at the channels' own scale, one."""
        phi0, other = random_channel(rng, 3, 3), random_channel(rng, 3, 3)
        delta = 1e-9
        phi1 = SuperOp.from_kraus(
            [np.sqrt(1 - delta) * k for k in phi0.rep.left]
            + [np.sqrt(delta) * k for k in other.rep.left])
        phi, j = channel_diff_data(phi0, phi1)
        assert spectral_norm(j) < 1e-8
        prob = build_channel_diff_sdp(phi, j)
        assert np.allclose(prob.obj[1], j, rtol=0, atol=1e-15)

    def test_rejects_inconsistent_adjoint(self):
        struct = BlockStructure((2,))
        with pytest.raises(InvalidInputError):
            SdpProblem.from_maps(
                struct, struct,
                lambda blocks: [blocks[0]],
                {0: [(0, 1, None, 2.0)]},
                [np.eye(2)], [np.eye(2)],
            )

    @pytest.mark.parametrize("equality", [(1,), (-1,), (0, 0), ("0",), (0.0,)])
    def test_rejects_bad_equality(self, equality):
        with pytest.raises(InvalidInputError, match="equality"):
            trace_problem(np.eye(2), equality=equality)

    def test_equality_stored(self):
        assert trace_problem(np.eye(2)).equality == ()
        assert trace_problem(np.eye(2), equality=[np.int64(0)]).equality == (0,)

    def test_probe_rows_bitwise(self, rng):
        """Rows formed from terms with two ``K`` per pair of variable and
        constraint blocks match the rows the dense oracle probes from ``psi``
        alone, to 1e-15 relative."""
        var, con = BlockStructure((3, 2)), BlockStructure((2, 3))
        ks = [random_complex(rng, (5, 5)) for _ in range(2)]

        def psi(blocks):
            x = np.zeros((5, 5), dtype=complex)
            x[:3, :3], x[3:, 3:] = blocks
            out = sum(k @ x @ k.conj().T for k in ks)
            return [out[:2, :2], out[2:, 2:]]

        cols, rows = (slice(0, 3), slice(3, 5)), (slice(0, 2), slice(2, 5))
        terms = {b: [(c, 1, k[rows[c], cols[b]], 1) for c in range(2)
                     for k in ks] for b in range(2)}
        prob = SdpProblem.from_maps(var, con, psi, terms, var.zeros(),
                                    con.zeros())
        assert prob.embedded == (None, None)
        for b, got in enumerate(prob.rows):
            assert _rel_err(got, probed_rows(var, con, psi, b)) <= 1e-15

    def test_probe_memory(self):
        """Full-rank d=5 (``r`` = 25): forming the X rows holds one Gram
        tensor of ``A`` and its gathers, not the 625 matrices of
        ``hermitian_basis(25)`` (6.25 MB)."""
        import tracemalloc

        n = 5
        pair = to_stinespring(random_superop(
            np.random.default_rng(1), n, n, terms=n * n))
        tracemalloc.start()
        try:
            prob = build_general_sdp(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * prob.rows[0].nbytes

    @pytest.mark.parametrize("n,m,terms", [(1, 3, 2), (3, 1, 2), (3, 3, 1),
                                           (5, 5, 25)])
    def test_general_rows_formed_not_probed(self, n, m, terms):
        """``build_general_sdp`` declares ``Psi^*`` by its terms, and the X
        block's rows formed from ``A`` match those the dense oracle probes
        from ``psi`` alone to 1e-15 relative (n = 1, m = 1, r = 1, and full
        rank at d = 5); the W block stores none."""
        pair = to_stinespring(random_superop(
            np.random.default_rng(n * m + terms), n, m, terms=terms))
        assert pair.dim_env == min(terms, n * m)
        prob, psi = built_with_psi(build_general_sdp, pair)
        assert prob.embedded == (None, (1, m)) and prob.rows[1] is None
        want = probed_rows(prob.var_structure, prob.con_structure, psi, 0)
        assert prob.rows[0].shape == want.shape
        assert _rel_err(prob.rows[0], want) <= 1e-15

    def test_declared_terms_checked(self):
        """A term must name a constraint block and fit its variable block,
        and the terms go through the adjoint check against ``psi``: a
        flipped sign fails it, on an embedded block and on one with formed
        rows."""
        k = np.array([[1.0, 2.0j]])
        args = (BlockStructure((2,)), BlockStructure((1,)),
                lambda blocks: [np.array([[np.trace(blocks[0])]])])
        data = ([np.eye(2)], [np.eye(1)])
        assert SdpProblem.from_maps(
            *args, {0: [(0, 2, None, 1)]}, *data).embedded == ((0, 2),)
        with_k = (*args[:2], lambda blocks: [k @ blocks[0] @ k.conj().T])
        assert SdpProblem.from_maps(
            *with_k, {0: [(0, 1, k, 1)]}, *data).embedded == (None,)
        for terms in ({0: [(0, 3, None, 1)]}, {0: [(0, 1, k.T, 1)]},
                      {0: [(0, 2, np.eye(2), 1), (0, 1, None, 1)]}):
            with pytest.raises(InvalidInputError, match="shape"):
                SdpProblem.from_maps(*args, terms, *data)
        for c in (1, -1, 0.0, None):
            with pytest.raises(InvalidInputError, match="constraint block"):
                SdpProblem.from_maps(*args, {0: [(c, 2, None, 1)]}, *data)
        with pytest.raises(InvalidInputError, match="adjoint"):
            SdpProblem.from_maps(*args, {0: [(0, 2, None, -1)]}, *data)
        with pytest.raises(InvalidInputError, match="adjoint"):
            SdpProblem.from_maps(*with_k, {0: [(0, 1, k, -1)]}, *data)

    def test_apply_psi_matches_callable(self, rng):
        prob = trace_problem(np.diag([1.0, 2.0, 3.0]))
        h = prob.var_structure.random_hermitian(rng)
        out = prob.apply_psi(h)
        assert out[0][0, 0] == pytest.approx(np.trace(h[0]).real)


class TestSolve:
    def test_box_constraint(self):
        sol = solve(identity_problem(3))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(3.0, abs=1e-6)
        assert sol.dual_value == pytest.approx(3.0, abs=1e-6)
        assert np.max(np.abs(sol.X_opt[0] - np.eye(3))) < 1e-5

    def test_top_eigenvalue(self):
        sol = solve(trace_problem(np.diag([1.0, 2.0])))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(2.0, abs=1e-6)

    def test_random_instance_gap(self, rng):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3) + 4.0 * np.eye(3)
        sol = solve(identity_problem(3, a=a, b=b))
        assert sol.status == "optimal"
        assert sol.gap <= 1e-8 * (1 + abs(sol.primal_value) +
                                  abs(sol.dual_value))
        assert sol.primal_infeas <= 1e-8
        assert sol.dual_infeas <= 1e-8

    def test_weak_duality(self, rng):
        for _ in range(5):
            a = random_hermitian(rng, 2)
            sol = solve(trace_problem(a))
            scale = 1 + abs(sol.primal_value) + abs(sol.dual_value)
            assert sol.primal_value <= sol.dual_value + 1e-7 * scale

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 3)
        prob = identity_problem(3, a=a)
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.primal_value == s2.primal_value
        assert s1.dual_value == s2.dual_value
        assert all(np.array_equal(x, y) for x, y in zip(s1.X_opt, s2.X_opt))
        assert all(np.array_equal(x, y) for x, y in zip(s1.Y_opt, s2.Y_opt))

    @pytest.mark.parametrize("build", [
        lambda a, eq: trace_problem(a, equality=eq),
        # A >= 0 makes X = B optimal, so X <= B is tight.
        lambda a, eq: identity_problem(3, a=a @ a, b=np.diag([1.0, 2.0, 3.0]),
                                       equality=eq),
    ])
    def test_tight_constraint_as_equality(self, build, rng):
        """A constraint every optimum makes tight has the same optimum when
        it is declared an equality, and the solve needs no slack block."""
        for _ in range(3):
            a = random_hermitian(rng, 3) + 2.0 * np.eye(3)
            ineq, eq = solve(build(a, ())), solve(build(a, (0,)))
            assert ineq.status == eq.status == "optimal"
            assert eq.primal_value == pytest.approx(ineq.primal_value, rel=1e-7)
            assert eq.dual_value == pytest.approx(ineq.dual_value, rel=1e-7)

    def test_equality_dual_unsigned(self):
        """Tr X = 1 with A <= 0: the optimal dual is the negative top
        eigenvalue of A, which the inequality form would clip at 0."""
        a = -np.diag([1.0, 2.0])
        eq = solve(trace_problem(a, equality=(0,)))
        assert eq.status == "optimal"
        assert eq.primal_value == pytest.approx(-1.0, abs=1e-7)
        assert eq.Y_opt[0][0, 0].real == pytest.approx(-1.0, abs=1e-7)
        assert solve(trace_problem(a)).primal_value == pytest.approx(0.0, abs=1e-7)

    def test_zero_optimum_converges(self):
        """The gap test is absolute near a zero optimum."""
        sol = solve(identity_problem(3, a=-np.eye(3)))
        assert sol.status == "optimal"
        assert abs(sol.primal_value) <= 1e-7 and abs(sol.dual_value) <= 1e-7

    def test_gap_test_relative_to_largest_objective(self, rng):
        """``optimal`` means ``|p - d| <= gap_tol * max(1, |p|, |d|)`` on
        the data scaled to ``|A| = |B| = 1``; a coarse tolerance lets the
        last gap land anywhere below it."""
        for _ in range(20):
            a = 3.0 * random_hermitian(rng, 3)
            b = random_psd(rng, 3) + np.eye(3)
            sol = solve(identity_problem(3, a=a, b=b), SolveOptions(gap_tol=1e-4))
            assert sol.status == "optimal"
            unit = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
            assert sol.gap <= 1e-4 * max(unit, abs(sol.primal_value),
                                         abs(sol.dual_value))

    def test_max_iterations_status(self):
        sol = solve(identity_problem(3), SolveOptions(max_iter=1))
        assert sol.status == "max_iterations"
        assert sol.iterations == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infeasible_returns_status(self):
        """``X <= B`` with ``B`` indefinite has no PSD solution: the dual
        follows the primal's infeasibility ray, and the solve stops with a
        status and a finite iterate within 40 iterations instead of failing
        in an eigensolve: ``diverged``, or ``numerical_failure`` where a
        factorization fails first.  Without the divergence stop, 103 of the
        180 problems of the second loop run past 40 iterations and 21 to
        ``max_iter``, with overflow warnings."""
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = random_hermitian(rng, 3)
            b = h - (np.linalg.eigvalsh(h)[0] + 0.21) * np.eye(3)
            sol = solve(identity_problem(3, a=np.eye(3), b=b))
            assert sol.status == "diverged"
            assert all(np.isfinite(m).all() for m in (*sol.X_opt, *sol.Y_opt))
        for d in (2, 3, 4):
            rng = np.random.default_rng(100 + d)
            for i in range(60):
                h = random_hermitian(rng, d)
                shift = (0.01, 0.1, 0.21, 1.0)[i % 4]
                b = h - (np.linalg.eigvalsh(h)[0] + shift) * np.eye(d)
                sol = solve(identity_problem(d, a=np.eye(d), b=b))
                assert sol.iterations <= 40, (d, i)
                assert sol.status in ("diverged", "numerical_failure"), (d, i)
                assert all(np.isfinite(m).all()
                           for m in (*sol.X_opt, *sol.Y_opt))

    def test_verbose_log(self, capsys):
        solve(identity_problem(2), SolveOptions(verbose=True))
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines and all("pobj" in ln and "gap" in ln for ln in lines)


def _cholesky_step(x, delta):
    """Largest t with ``X + t delta >= 0`` by the Cholesky factor of ``X =
    L L^dag``: ``-1 / lambda_min(L^-1 delta L^-dag)`` (``inf`` when that is
    not negative).  The solve took its step lengths so before it read them
    from the Nesterov-Todd factors; the oracle of the new form."""
    li = np.linalg.inv(np.linalg.cholesky(x))
    w = li @ delta @ li.conj().T
    lam_min = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
    return np.inf if lam_min >= -1e-16 else -1.0 / lam_min


class TestStepLength:
    @pytest.mark.parametrize("block", [0, 1], ids=["stored", "embedded"])
    def test_matches_cholesky_formula(self, block):
        """At random iterates of the X block (stored rows, n = 2) and the W
        block (embedded, 6 x 6) of a general-route problem, the step lengths
        from the scaled directions ``R^-1 dX R^-dag`` and ``R^dag dZ R``
        match those from Cholesky factors of ``X`` and ``Z`` to 1e-12
        relative, for random directions short and long against the
        boundary.  The iterates have eigenvalues from 1e-3 to 1: the oracle's
        own rounding grows with the condition number of ``X`` and ``Z``.
        The solve never forms ``R^-1``; here it is ``np.linalg.inv(R)``."""
        prob = build_general_sdp(to_stinespring(random_superop(
            np.random.default_rng(5), 2, 3, terms=2)))
        assert prob.embedded[block] is None if block == 0 else \
            prob.embedded[block] is not None
        d = prob.var_structure.blocks[block]
        rng = np.random.default_rng(block)

        def iterate():
            q = np.linalg.qr(random_complex(rng, (d, d)))[0]
            return (q * np.logspace(-3, 0, d)) @ q.conj().T

        for _ in range(20):
            x, z = iterate(), iterate()
            r, v = _nt_scaling(x, z)
            r_inv = np.linalg.inv(r)
            for length in (1e-3, 1.0, 1e3):
                dx, dz = (length * random_hermitian(rng, d) for _ in range(2))
                for got, want in (
                        (_max_steps(v, r_inv @ dx @ r_inv.conj().T)[0],
                         _cholesky_step(x, dx)),
                        (_max_steps(v, r.conj().T @ dz @ r)[0],
                         _cholesky_step(z, dz))):
                    assert got == pytest.approx(want, rel=1e-12)


def _predictor_records():
    """``(block, X, Z, R, v, dZh)`` at each predictor of the first four
    iterations of a general-route problem held with ``<=``: its ``X`` block
    has stored rows (block 0), its ``W`` block is embedded (block 1), and
    the slack blocks of its two constraint blocks follow (blocks 2, 3)."""
    prob = replace(build_general_sdp(to_stinespring(random_superop(
        np.random.default_rng(5), 2, 3, terms=2))), equality=())
    assert prob.equality == () and prob.embedded[0] is None \
        and prob.embedded[1] is not None
    nb = len(prob.var_structure.blocks) + len(prob.con_structure.blocks)
    scalings, records = [], []

    def scaling(x, z):
        scalings.append((x, z, *_nt_scaling(x, z)))
        return scalings[-1][2:]

    def steps(v, delta_hat):
        # The predictor's is the first step taken on each new scaling.
        pos = next(i for i, s in enumerate(scalings) if s[3] is v)
        if pos not in seen:
            seen.add(pos)
            records.append((pos % nb, *scalings[pos], delta_hat))
        return _max_steps(v, delta_hat)

    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp_module, "_nt_scaling", scaling)
        mp.setattr(sdp_module, "_max_steps", steps)
        solve(prob, SolveOptions(max_iter=4))
    return records


class TestScaledSpace:
    """The iteration in the Nesterov-Todd scaled space, where ``X`` and
    ``Z`` are both ``diag(v)``, against the unscaled directions formed with
    an explicit ``R^-1``, at solver iterates of every kind of block."""

    @pytest.fixture(scope="class")
    def records(self):
        return _predictor_records()

    def test_every_block_kind(self, records):
        assert {rec[0] for rec in records} == {0, 1, 2, 3}

    def test_predictor_steps_from_one_eigensolve(self, records):
        """Both predictor steps from the one eigensolve of ``diag(v)^-1/2
        dZh diag(v)^-1/2`` equal the steps along ``R^-1 dX R^-dag`` and
        ``R^dag dZ R``, each from its own eigensolve, with ``dX = -X - W dZ
        W`` the Newton equation's and ``R^-1`` from ``np.linalg.inv``."""
        for _, x, _, r, v, dzh in records:
            r_inv = np.linalg.inv(r)
            dz = r_inv.conj().T @ dzh @ r_inv
            w = r @ r.conj().T
            dx = -x - w @ dz @ w
            want = (_max_steps(v, r_inv @ dx @ r_inv.conj().T)[0],
                    _max_steps(v, r.conj().T @ dz @ r)[0])
            assert _max_steps(v, dzh)[::-1] == pytest.approx(want, rel=1e-12)

    def test_primal_direction_from_scaled_target(self, records):
        """``R (rc_hat - dZh) R^dag = rc - W dZ W`` for the predictor's
        target ``rc = -X`` (``rc_hat = -diag(v)``) and for a random one."""
        rng = np.random.default_rng(11)
        for _, x, _, r, v, dzh in records:
            r_inv = np.linalg.inv(r)
            dz = r_inv.conj().T @ dzh @ r_inv
            w = r @ r.conj().T
            for rc_hat in (-np.diag(v), random_hermitian(rng, len(v))):
                rc = r @ rc_hat @ r.conj().T
                assert _close(r @ (rc_hat - dzh) @ r.conj().T,
                              rc - w @ dz @ w)


class TestSolveOptions:
    @pytest.mark.parametrize("name", ["gap_tol", "feas_tol"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1.0, np.inf])
    def test_rejects_tolerance(self, name, value):
        with pytest.raises(InvalidInputError,
                           match=f"{name} must be finite and positive"):
            SolveOptions(**{name: value})

    @pytest.mark.parametrize("value", [0, -1, 2.5])
    def test_rejects_max_iter(self, value):
        with pytest.raises(InvalidInputError,
                           match="max_iter must be an integer >= 1"):
            SolveOptions(max_iter=value)


class TestCheckFeasibility:
    def test_zero_point_feasible(self):
        prob = identity_problem(2)
        rep = check_feasibility(prob, [np.zeros((2, 2))], "primal")
        assert rep.max_violation == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_violation_one(self):
        prob = identity_problem(2)
        rep = check_feasibility(prob, [2.0 * np.eye(2)], "primal")
        assert rep.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_solver_output_feasible(self, rng):
        a = random_hermitian(rng, 3)
        prob = identity_problem(3, a=a)
        sol = solve(prob)
        prep = check_feasibility(prob, sol.X_opt, "primal")
        assert prep.max_violation <= 1e-7
        assert prep.min_eigenvalue >= -1e-8
        drep = check_feasibility(prob, sol.Y_opt, "dual")
        assert drep.max_violation <= 1e-6
        assert drep.min_eigenvalue >= -1e-8

    def test_dual_side(self):
        prob = trace_problem(np.diag([1.0, 2.0]))
        # y = 3 on the 1x1 constraint block dominates A = diag(1, 2).
        rep = check_feasibility(prob, [np.array([[3.0]])], "dual")
        assert rep.max_violation == 0.0
        assert rep.min_eigenvalue == pytest.approx(3.0)

    def test_equality_block_both_directions(self):
        """Tr X = 1/2 meets Tr X <= 1 but violates Tr X = 1 by 1/2."""
        x = [np.diag([0.25, 0.25])]
        ineq = check_feasibility(trace_problem(np.eye(2)), x, "primal")
        eq = check_feasibility(trace_problem(np.eye(2), equality=(0,)), x,
                               "primal")
        assert ineq.max_violation == 0.0
        assert eq.max_violation == pytest.approx(0.5, abs=1e-12)
        # Above B the two forms agree.
        over = [np.eye(2)]
        for prob in (trace_problem(np.eye(2)),
                     trace_problem(np.eye(2), equality=(0,))):
            assert check_feasibility(prob, over, "primal").max_violation == \
                pytest.approx(1.0, abs=1e-12)

    def test_equality_dual_sign_free(self):
        """y = -1 dominates A = -2 1; only the inequality form needs y >= 0."""
        a, y = -2.0 * np.eye(2), [np.array([[-1.0]])]
        ineq = check_feasibility(trace_problem(a), y, "dual")
        eq = check_feasibility(trace_problem(a, equality=(0,)), y, "dual")
        assert ineq.max_violation == eq.max_violation == 0.0
        assert ineq.min_eigenvalue == pytest.approx(-1.0)
        assert eq.min_eigenvalue == np.inf

    def test_bad_side(self):
        with pytest.raises(InvalidInputError):
            check_feasibility(identity_problem(2), [np.eye(2)], "both")


def _w_block_problems():
    """(problem, oracle, k) whose W block (index 1) is declared embedded."""
    rng = np.random.default_rng(7)
    # Channel-difference SDP (the tests' oracle): W enters as F_j itself,
    # k = 1.
    chan = dense_oracle(build_channel_diff_sdp, *channel_diff_data(
        random_channel(rng, 2, 3), random_channel(rng, 2, 3)))
    # General route with n != m: W enters as 1_m (x) F_j, k = m = 3.
    general = dense_oracle(build_general_sdp,
                           to_stinespring(random_superop(rng, 2, 3)))
    # n = 1 (the fidelity instance of the general route), k = m = 2.
    u, v = random_complex(rng, (6, 1)), random_complex(rng, (6, 1))
    trivial_in = dense_oracle(build_general_sdp, StinespringPair(u, v, 3))
    return [(*chan, 1), (*general, 3), (*trivial_in, 2)]


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestEmbeddedBlocks:
    """Declared embedded blocks against the all-dense rows they replace."""

    @pytest.mark.parametrize("case", range(3))
    def test_matches_dense_rows(self, case, rng):
        prob, oracle, k = _w_block_problems()[case]
        assert prob.embedded == (None, (1, k)) and prob.rows[1] is None
        assert oracle.embedded == (None, None)
        rows = oracle.rows[1]
        m_con, d = rows.shape[0], rows.shape[1]
        sl, k_found, index = _placements(prob.con_structure, prob.embedded)[1]
        assert k_found == k and d == k * index.r
        flat = rows.reshape(m_con, -1)

        w = random_psd(rng, d)
        dense_schur = (flat.conj() @ (w[None] @ rows @ w[None])
                       .reshape(m_con, -1).T).real
        schur = np.zeros((m_con, m_con))
        schur[sl, sl] = _embedded_schur(w, k, index)
        assert np.max(np.abs(schur - dense_schur)) <= \
            1e-12 * np.max(np.abs(dense_schur))

        # A non-Hermitian input counts through its Hermitian part.
        x = random_complex(rng, (d, d))
        dense_op = (flat.conj() @ x.reshape(-1)).real
        op = np.zeros(m_con)
        op[sl] = _embedded_a_op(x, k, index)
        assert np.max(np.abs(op - dense_op)) <= 1e-12 * np.max(np.abs(dense_op))

        yv = rng.standard_normal(m_con)
        dense_adj = np.einsum("j,jab->ab", yv, rows)
        adj = _embedded_a_adj(yv[sl], k, index)
        assert np.max(np.abs(adj - dense_adj)) <= \
            1e-12 * np.max(np.abs(dense_adj))

    @pytest.mark.parametrize("case", range(3))
    def test_stored_rows_bitwise(self, case):
        """The oracle probes the rows from ``psi``; ``from_maps`` forms them
        from the declared terms, by another formula, exact in exact
        arithmetic."""
        prob, oracle, _ = _w_block_problems()[case]
        assert _rel_err(prob.rows[0], oracle.rows[0]) <= 1e-15

    @pytest.mark.parametrize("case", range(3))
    def test_apply_psi_and_feasibility(self, case, rng):
        prob, oracle, _ = _w_block_problems()[case]
        x = prob.var_structure.random_hermitian(rng)
        for got, want in zip(prob.apply_psi(x), oracle.apply_psi(x)):
            assert _close(got, want)
        y = prob.con_structure.random_hermitian(rng)
        for point, side in ((x, "primal"), (y, "dual")):
            got = check_feasibility(prob, point, side)
            want = check_feasibility(oracle, point, side)
            assert got.max_violation == pytest.approx(
                want.max_violation, rel=1e-12, abs=1e-12)
            assert got.min_eigenvalue == want.min_eigenvalue

    def test_only_undeclared_rows_stored(self):
        """Full-rank d=4: only the X block's rows, ``m_con x n^2``."""
        n = 4
        prob = build_general_sdp(to_stinespring(random_superop(
            np.random.default_rng(1), n, n, terms=n * n)))
        m_con = prob.con_structure.dof
        assert m_con == 1 + (n * n) ** 2
        stored = sum(r.nbytes for r in prob.rows if r is not None)
        assert stored == 16 * m_con * n * n

    def test_bad_declaration_rejected(self):
        n = 2
        args = (BlockStructure((n,)), BlockStructure((1,)),
                lambda blocks: [np.array([[2 * np.trace(blocks[0])]])])
        data = ([np.eye(n)], [np.eye(1)])
        assert SdpProblem.from_maps(
            *args, {0: [(0, n, None, 2)]}, *data).embedded == (None,)
        with pytest.raises(InvalidInputError, match="shape"):
            SdpProblem.from_maps(*args, {0: [(0, 3, None, 1)]}, *data)
        # Psi^*(y) is 2 y 1, not the embedded 1_2 (x) y.
        with pytest.raises(InvalidInputError, match="adjoint"):
            SdpProblem.from_maps(*args, {0: [(0, n, None, 1)]}, *data)


@pytest.mark.parametrize("n, m", [(3, 3), (3, 5), (5, 5)])
def test_rank_two_general_maps_optimal(n, m):
    """The structured ``A`` must read the Hermitian part of its input, as the
    dense rows do; reading one triangle breaks these solves."""
    for seed in range(12):
        phi = random_superop(np.random.default_rng(seed), n, m, terms=2)
        res = diamond_norm(phi)
        assert res.solver_stats.status == "optimal", seed

"""Completely bounded norms via semidefinite programming, with certificates.

Two routes:

* the general route, for any super-operator given by a minimal Stinespring
  pair ``(A, B)``: the squared norm is the optimum of

      maximize <B B^dag, W>  s.t.  Tr_Y(W) = Tr_Y(A X A^dag), Tr X = 1

  with dual  minimize lambda  s.t.  lambda 1 >= A^dag(1 (x) Z)A,
  1 (x) Z >= B B^dag;

* the channel-difference route for ``phi0 - phi1`` with both channels:

      maximize <J(phi), W>  s.t.  W <= 1 (x) rho, Tr rho = 1

  whose optimum is half the norm, with dual  minimize |Tr_Y(Z)|_inf
  s.t. Z >= J(phi).

The paper states every constraint with ``<=``.  Those written with ``=``
here are tight at some optimum, so the optimum is the same: ``B B^dag >= 0``
lets ``W + (1_m / m) (x) Delta`` close a gap ``Delta`` in the marginal
without lowering the objective, and scaling by ``1 / Tr X`` (or
``1 / Tr rho``) does not lower it either.  Held as equalities, they need no
slack block in the solver, and their duals need no sign constraint: the
dual constraints already force ``Z >= 0`` and ``lambda >= 0``.

``method="auto"`` takes the route with the smaller Newton system: a channel
difference goes general (``1 + r^2`` rows, ``r = rank J``) only when
``r < mn`` (``1 + (mn)^2`` rows on the other route); other maps always do.

Both routes run through one build -> solve -> repair -> bounds pipeline.
The general route scales its pair by powers of two to spectral norms in
[1, 2), so its tolerances (the solver's gap test too) are relative, and maps
the result back exactly.  It first tries the alternating ascent, which
bounds the norm below and, every fifth sweep (one ``verbose`` line each),
by Alberti's dual ``P^-1 # Q`` of the marginals, scaled to ``c Z``, above,
to a width of ``gap_tol / 100``, where that pays: at input dimension one
(one sweep is exact; the fidelity SDP is one), where the sweeps cost fewer
flops than a Newton system, ``ASCENT_SWEEPS ((mn)^3 + n^6) <= (1 + r^2)^3``
(``r`` the Choi rank), and at ``r <= 2`` for ``n, m <= 5``, where a solve's
dozen iterations of Python overhead outweigh the sweeps (beyond that, the
sweep's ``n^2 x n^2`` SVD costs more, and 6x6 maps were slower on it).  It
leaves the map to the solve when the optimal state is rank-deficient or the
width contracts too slowly.  A call forms ``J`` once (only ``J = 0`` takes
the zero result): the channel-difference SDP is built from it, the general
route's Stinespring pair is its SVD.
Certificates are repaired to be (numerically) exactly feasible, so the
bounds are sound whatever the solver's termination state, including
``numerical_failure``; only a non-finite last iterate raises.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import superop
from .errors import InvalidInputError, NumericalFailureError
from .linalg import (
    herm_eig,
    kron,
    max_eigenvalue,
    min_eigenvalue,
    partial_trace,
    spectral_norm,
)
from .sdp import (
    BlockStructure,
    SdpProblem,
    SolveOptions,
    solve,
)
from .superop import StinespringPair, SuperOp, to_choi

# Sweep budget of the certified ascent (_ascent_general).
ASCENT_SWEEPS = 100


@dataclass(frozen=True)
class GeneralCertificate:
    """Witness pair for the general route, tied to a Stinespring pair."""

    pair: StinespringPair
    rho: np.ndarray
    w: np.ndarray
    lam: float
    z: np.ndarray
    kind: str = "general"


@dataclass(frozen=True)
class ChannelDiffCertificate:
    rho: np.ndarray
    w: np.ndarray
    z: np.ndarray
    kind: str = "channel_diff"


@dataclass(frozen=True)
class SolverStats:
    status: str
    iterations: int
    gap: float
    primal_infeas: float
    dual_infeas: float


@dataclass(frozen=True)
class NormResult:
    value: float
    lower_bound: float
    upper_bound: float
    method: str
    certificate: object
    solver_stats: SolverStats
    warnings: tuple = ()


@dataclass
class NormOptions:
    method: str = "auto"  # auto | general | channel-diff
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    verbose: bool = False


def build_general_sdp(pair: StinespringPair) -> SdpProblem:
    """Triple-form problem whose primal optimum is the squared norm."""
    a, b, r = pair.a, pair.b, pair.dim_env
    if a.shape != b.shape or a.shape[0] % r != 0:
        raise InvalidInputError("inconsistent Stinespring pair dimensions")
    m = a.shape[0] // r
    n = a.shape[1]
    var = BlockStructure((n, m * r))
    con = BlockStructure((1, r))
    bbdag = b @ b.conj().T
    eye_m = np.eye(m)

    def psi(blocks):
        x, w = blocks
        env = partial_trace(w - a @ x @ a.conj().T, (m, r), side="first")
        return [np.array([[np.trace(x)]]), env]

    def psi_adj(blocks):
        lam, big_z = blocks[0][0, 0], kron(eye_m, blocks[1])
        return [lam * np.eye(n) - a.conj().T @ big_z @ a, big_z]

    obj = [np.zeros((n, n)), bbdag]
    rhs = [np.eye(1), np.zeros((r, r))]
    # W enters Psi^* as 1_m (x) Z, Z the dual of constraint block 1.
    # Equalities: W + (1_m / m) (x) Delta and X / Tr X never lower the value.
    return SdpProblem.from_maps(var, con, psi, psi_adj, obj, rhs,
                                embedded={1: (1, m)}, equality=(0, 1))


def build_channel_diff_sdp(phi: SuperOp, j: np.ndarray) -> SdpProblem:
    """Triple-form problem whose primal optimum is half the norm of the
    channel difference ``phi``; ``j`` is its Hermitian Choi matrix."""
    if not isinstance(phi.rep, superop.ChannelDifference):
        raise InvalidInputError(
            "channel-diff SDP requires a channel-difference representation")
    n, m = phi.dim_in, phi.dim_out
    var = BlockStructure((n, m * n))
    con = BlockStructure((1, m * n))
    eye_m = np.eye(m)

    def psi(blocks):
        rho, w = blocks
        return [np.array([[np.trace(rho)]]), w - kron(eye_m, rho)]

    def psi_adj(blocks):
        lam, z = blocks[0][0, 0], blocks[1]
        return [lam * np.eye(n) - partial_trace(z, (m, n), side="first"), z]

    obj = [np.zeros((n, n)), j]
    rhs = [np.eye(1), np.zeros((m * n, m * n))]
    # W enters Psi^* as Z itself, the dual of constraint block 1.
    # Tr rho = 1: (rho, W) / Tr rho never lowers the value; W keeps its slack.
    return SdpProblem.from_maps(var, con, psi, psi_adj, obj, rhs,
                                embedded={1: (1, 1)}, equality=(0,))


def _psd_part(mat: np.ndarray) -> np.ndarray:
    vals, vecs = herm_eig(mat)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T


def _normalized_state(x, n):
    """Positive part of ``x`` scaled to unit trace; ``1/n`` when that part
    carries no more than 1e-8 of the trace norm of ``x`` (at any scale)."""
    vals, vecs = herm_eig(x)
    rho = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    tr = float(np.trace(rho).real)
    if tr > 1e-8 * float(np.abs(vals).sum()):
        return rho / tr
    return np.eye(n, dtype=complex) / n


def _purification(rho):
    """Unit vector on ``X (x) W`` (as an ``n x n`` matrix) whose reduced
    state on ``X`` is the state ``rho``."""
    vals, vecs = herm_eig(rho)
    mat = vecs * np.sqrt(np.maximum(vals, 0.0))
    return mat / np.linalg.norm(mat)


def _polar_adjoint(at, bt, u, v):
    """``U^dag`` ((Y, W), (y, w)) for the polar factor of ``t s^dag``, and t;
    ``t = (A (x) 1) u`` and ``s = (B (x) 1) v`` indexed ((y, w), z)."""
    t, s = (np.swapaxes(x @ y, 1, 2).reshape(-1, x.shape[1])
            for x, y in ((at, u), (bt, v)))
    p, _, qh = np.linalg.svd(t @ s.conj().T)
    return (p @ qh).conj().T, t


def _sweep_operands(pair):
    """``A``, ``B`` indexed (Y, Z, X), and the Choi matrix reshuffled,
    ``H[X, x, Y, y] = sum_z conj(B[Y,z,X]) A[y,z,x]``, formed once per pair."""
    at, bt = (x.reshape(-1, pair.dim_env, x.shape[1]) for x in (pair.a, pair.b))
    return at, bt, np.ascontiguousarray(
        np.tensordot(bt.conj(), at, axes=(1, 1)).transpose(1, 3, 0, 2))


def _sweep_operator(h, uh):
    """``(B^dag (x) 1)(U^dag (x) 1_Z)(A (x) 1)``, indexed ((X, W), (x, w)), as
    ``H U^dag`` for ``H`` of :func:`_sweep_operands`: no product holds more
    than ``(mn)^2`` or ``(n nw)^2`` entries."""
    n, m, nw = h.shape[0], h.shape[2], uh.shape[0] // h.shape[2]
    k = h.reshape(n * n, -1) @ \
        uh.reshape(m, nw, m, nw).transpose(0, 2, 1, 3).reshape(m * m, -1)
    return k.reshape(n, n, nw, nw).transpose(0, 2, 1, 3).reshape(n * nw, -1)


def _ascent_sweep(at, bt, h, u_mat, v_mat):
    """One ascent sweep on ``A``, ``B`` indexed (Y, Z, X), ``H`` their
    reshuffled Choi matrix: the Uhlmann unitary ``U`` for the purifications
    ``u``, ``v`` on ``X (x) W``, then the new ``(u, v)`` and value: the top
    singular triple of ``(B^dag (x) 1)(U^dag (x) 1_Z)(A (x) 1)``."""
    n, nw = u_mat.shape
    uh = _polar_adjoint(at, bt, u_mat, v_mat)[0]
    pk, sk, qkh = np.linalg.svd(_sweep_operator(h, uh))
    return qkh[0, :].conj().reshape(n, nw), pk[:, 0].reshape(n, nw), \
        float(sk[0])


def _ascent_primal(pair, rho0, rho1, max_iters=300, tol=1e-13):
    """Exactly feasible primal witness (rho, W) from alternating ascent.

    The norm is the largest fidelity between ``Tr_Y(A rho0 A^dag)`` and
    ``Tr_Y(B rho1 B^dag)`` over states; sweeps stop when it moves by at most
    ``tol`` relative.  From the solver's near-optimal ``rho0`` (input) and
    ``rho1`` (output side), the first sweep is within the solver gap."""
    at, bt, h = _sweep_operands(pair)
    u_mat = _purification(rho0)
    v_mat = _purification(rho1)
    prev = -np.inf
    for _ in range(max_iters):
        u_mat, v_mat, obj = _ascent_sweep(at, bt, h, u_mat, v_mat)
        if abs(obj - prev) <= tol * obj:
            break
        prev = obj
    return _primal_witness(at, bt, u_mat, v_mat)


def _primal_witness(at, bt, u_mat, v_mat):
    """``(rho, W)`` for ``u``, ``v`` and their Uhlmann unitary: feasible to
    roundoff, by unitary invariance, however far from the optimum."""
    m, r = at.shape[:2]
    uh, t = _polar_adjoint(at, bt, u_mat, v_mat)
    q = (uh @ t).reshape(m, -1, r).transpose(0, 2, 1).reshape(m * r, -1)
    w = q @ q.conj().T
    w = (w + w.conj().T) / 2
    rho = u_mat @ u_mat.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho, w


def _repair_general_certificate(pair, sol) -> GeneralCertificate:
    n = pair.a.shape[1]
    # The optimal output-side state is proportional to B^dag W B.
    x1 = pair.b.conj().T @ sol.X_opt[1] @ pair.b
    rho, w = _ascent_primal(
        pair,
        _normalized_state(sol.X_opt[0], n),
        _normalized_state((x1 + x1.conj().T) / 2, n),
    )
    lam, z = _feasible_dual(pair, sol.Y_opt[1])
    return GeneralCertificate(pair=pair, rho=rho, w=w, lam=lam, z=z)


def _feasible_dual(pair, z):
    """``(lambda, Z)``: the positive part of ``z`` made exactly feasible."""
    a, b, r = pair.a, pair.b, pair.dim_env
    m = a.shape[0] // r
    # Two ways to make 1 (x) Z dominate B B^dag: shift Z by the worst
    # violation, or, for Z > 0, scale it by c = lambda_max(B^dag (1 (x) Z)^-1
    # B), since 1 (x) Z >= B B^dag iff that is at most 1.  Keep the Z with the
    # smaller bound; both carry an allowance for rounding.
    vals, vecs = herm_eig(z)
    z = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    rounding = 8 * np.finfo(float).eps * m * r
    shift = max(0.0, -min_eigenvalue(kron(np.eye(m), z) - b @ b.conj().T))
    candidates = [z + (shift + rounding * spectral_norm(b) ** 2) * np.eye(r)]
    if vals[-1] > 0:
        inv_root = (vecs * vals ** -0.5).conj().T
        c = spectral_norm(kron(np.eye(m), inv_root) @ b) ** 2
        candidates.append(c * (1 + rounding) * z)
    return min(
        ((spectral_norm(a.conj().T @ kron(np.eye(m), zc) @ a), zc)
         for zc in candidates), key=lambda t: t[0])


def _geometric_mean(p, q):
    """Alberti's ``Z = P^-1 # Q = P^-1/2 (P^1/2 Q P^1/2)^1/2 P^-1/2`` (the
    inner root above rounding level), with ``<P, Z> = <Q, Z^-1> = F(P, Q)``;
    ``None`` for a ``P`` singular at rounding level."""
    vals, vecs = herm_eig(p)
    rounding = len(p) * np.finfo(float).eps  # relative to the largest one
    if not vals[-1] > rounding * vals[0]:
        return None
    root, inv_root = ((vecs * vals ** e) @ vecs.conj().T for e in (0.5, -0.5))
    mvals, mvecs = herm_eig(root @ q @ root)
    mvals = np.where(mvals > rounding * max(mvals[0], 0.0), mvals, 0.0)
    return inv_root @ ((mvecs * np.sqrt(mvals)) @ mvecs.conj().T) @ inv_root


def _ascent_general(pair, opt) -> NormResult | None:
    """The general route by ascent (module docstring) from maximally mixed
    states; ``None`` (the solve takes over) outside the rule, for a singular
    ``P`` or ``Z``, when the width's contraction predicts the target past the
    budget, or on a miss.  At ``n = 1`` one sweep is exact: no target."""
    r, n = pair.dim_env, pair.a.shape[1]
    m = pair.a.shape[0] // r
    if not (n == 1 or ASCENT_SWEEPS * ((m * n) ** 3 + n ** 6) <=
            (1 + r * r) ** 3 or (r <= 2 and max(n, m) <= 5)):
        return None
    at, bt, h = _sweep_operands(pair)
    u = v = _purification(np.eye(n) / n)
    budget, target = (1, np.inf) if n == 1 else \
        (ASCENT_SWEEPS, opt.gap_tol / 100)
    best, widths = (np.inf, None), []
    for sweep in range(1, budget + 1):
        u, v, lower = _ascent_sweep(at, bt, h, u, v)
        if sweep % 5 and sweep < budget:
            continue
        # Marginals Tr_Y(A rho0 A^dag) = Tr_{Y,W}(t t^dag), t = (A (x) 1) u.
        t, s = (np.swapaxes(x @ y, 0, 1).reshape(r, -1)
                for x, y in ((at, u), (bt, v)))
        p = t @ t.conj().T
        z = _geometric_mean(p, s @ s.conj().T)
        if z is None:
            return None
        if n == 1:  # F(P, Q) Z = <P, Z> Z is the optimal dual
            best = (lower, float(np.vdot(p, z).real) * z)
            break
        if not (eig := herm_eig(z)).values[-1] > 0:
            return None
        # The bound of c Z: lambda_max(A^dag (1 (x) Z) A) times c.
        z_inv = (eig.vectors / eig.values) @ eig.vectors.conj().T
        upper = np.sqrt(np.prod([np.linalg.eigvalsh(
            x.reshape(-1, n).conj().T @ (y @ x).reshape(-1, n))[-1]
            for x, y in ((at, z), (bt, z_inv))]))
        best = min(best, (upper, z), key=lambda b: b[0])
        widths.append((best[0] - lower) / best[0])
        if opt.verbose:
            print(f"sweep {sweep:3d}  lower {lower: .9e}  upper {best[0]: .9e}"
                  f"  width {widths[-1]:.3e}", file=sys.stderr)
        if widths[-1] <= target:
            break
        # Extrapolate from the slowest contraction so far.
        rates = [w / w0 for w0, w in zip(widths, widths[1:])]
        if rates and not (max(rates) < 1 and sweep + 5 * np.log(
                target / widths[-1]) / np.log(max(rates)) <= budget):
            return None
    rho, w = _primal_witness(at, bt, u, v)
    lam, z = _feasible_dual(pair, best[1])
    cert = GeneralCertificate(pair=pair, rho=rho, w=w, lam=lam, z=z)
    lower, upper = _general_certificate_bounds(cert)
    if (upper - lower) / target > upper:
        return None
    stats = SolverStats("optimal", 0, abs(upper ** 2 - lower ** 2), 0.0, 0.0)
    return NormResult(min(lower, upper), lower, upper, "general_sdp", cert,
                      stats)


def _repair_channel_diff_certificate(phi, j, sol) -> ChannelDiffCertificate:
    n, m = phi.dim_in, phi.dim_out
    rho = _normalized_state(sol.X_opt[0], n)
    # Inner optimum for this rho in closed form: with
    # W = (1 (x) sqrt(rho)) P (1 (x) sqrt(rho)) and P the projector onto the
    # positive part of (1 (x) sqrt(rho)) J (1 (x) sqrt(rho)), the constraint
    # W <= 1 (x) rho is exact and <J, W> is maximal for this rho.
    vals, vecs = herm_eig(rho)
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    s = kron(np.eye(m), root)
    c = s @ j @ s
    cvals, cvecs = herm_eig((c + c.conj().T) / 2)
    keep = cvecs[:, cvals > 0]
    proj = keep @ keep.conj().T
    w = s @ proj @ s
    w = (w + w.conj().T) / 2
    z = _psd_part(sol.Y_opt[1])
    shift = max(0.0, -min_eigenvalue(z - j))
    if shift > 0:
        z = z + shift * np.eye(m * n)
    return ChannelDiffCertificate(rho=rho, w=w, z=z)


def _trivial_zero_result(phi: SuperOp, method: str) -> NormResult:
    n, m = phi.dim_in, phi.dim_out
    stats = SolverStats("optimal", 0, 0.0, 0.0, 0.0)
    if method == "channel_diff_sdp":
        cert = ChannelDiffCertificate(
            rho=np.eye(n) / n,
            w=np.zeros((m * n, m * n)),
            z=np.zeros((m * n, m * n)),
        )
    else:
        zero = np.zeros((m, n))
        cert = GeneralCertificate(
            pair=StinespringPair(zero, zero, 1),
            rho=np.eye(n) / n,
            w=np.zeros((m, m)),
            lam=0.0,
            z=np.zeros((1, 1)),
        )
    return NormResult(0.0, 0.0, 0.0, method, cert, stats)


def _general_certificate_bounds(cert: GeneralCertificate) -> tuple:
    a, b = cert.pair.a, cert.pair.b
    m = a.shape[0] // cert.pair.dim_env
    lower = np.sqrt(max(0.0, float(np.vdot(b @ b.conj().T, cert.w).real)))
    upper = np.sqrt(
        max(0.0, spectral_norm(a.conj().T @ kron(np.eye(m), cert.z) @ a))
    )
    return lower, upper


def _channel_diff_certificate_bounds(phi, j, cert) -> tuple:
    n, m = phi.dim_in, phi.dim_out
    lower = 2.0 * max(0.0, float(np.vdot(j, cert.w).real))
    upper = 2.0 * spectral_norm(partial_trace(cert.z, (m, n), side="first"))
    return lower, upper


# Each route is (method, build, repair, bounds, estimate) over its data:
# build(*data) makes the SDP, repair(*data, sol) an exactly feasible
# certificate from the solver's last iterate, bounds(*data, cert) the bracket
# it proves, estimate(sol) the norm read off the objectives.  Builders are
# looked up at call time, so wrappers installed on the module see them.
_ROUTES = {
    # data (pair,); the SDP value is the squared norm.
    "general": (
        "general_sdp",
        lambda pair: build_general_sdp(pair),
        _repair_general_certificate,
        lambda pair, cert: _general_certificate_bounds(cert),
        lambda sol: np.sqrt(max(0.0, (sol.primal_value + sol.dual_value) / 2)),
    ),
    # data (phi, J), J the Hermitian Choi matrix; the SDP value is half the norm.
    "channel-diff": (
        "channel_diff_sdp",
        lambda phi, j: build_channel_diff_sdp(phi, j),
        _repair_channel_diff_certificate,
        _channel_diff_certificate_bounds,
        lambda sol: sol.primal_value + sol.dual_value,
    ),
}


def _solve_route(route: str, data: tuple, opt: NormOptions) -> NormResult:
    """Build, solve, repair and bound one route's SDP (or its ascent);
    the general route runs on its pair scaled by powers of two (module doc)."""
    res = None
    if route == "general":
        pair = data[0]
        sa, sb = (np.ldexp(1.0, 1 - np.frexp(spectral_norm(x))[1])
                  for x in (pair.a, pair.b))
        data = (StinespringPair(sa * pair.a, sb * pair.b, pair.dim_env),)
        res = _ascent_general(*data, opt)
    if res is None:
        method, build, repair, bounds, estimate = _ROUTES[route]
        sol = solve(build(*data), SolveOptions(
            gap_tol=opt.gap_tol, feas_tol=opt.feas_tol,
            max_iter=opt.max_iter, verbose=opt.verbose,
        ))
        if not all(np.isfinite(x).all() for x in (*sol.X_opt, *sol.Y_opt)):
            raise NumericalFailureError("interior-point solve failed")
        cert = repair(*data, sol)
        lower, upper = bounds(*data, cert)
        stats = SolverStats(sol.status, sol.iterations, sol.gap,
                            sol.primal_infeas, sol.dual_infeas)
        warnings = () if sol.status == "optimal" else (
            f"solver status {sol.status}; bounds widened",)
        value = min(max(estimate(sol), lower), upper)
        res = NormResult(value, lower, upper, method, cert, stats, warnings)
    if route != "general":
        return res
    c, cert, stats = sa * sb, res.certificate, res.solver_stats
    cert = replace(cert, pair=pair, w=cert.w / sa ** 2, lam=cert.lam / c ** 2,
                   z=cert.z / sb ** 2)
    return replace(res, value=res.value / c, lower_bound=res.lower_bound / c,
                   upper_bound=res.upper_bound / c, certificate=cert,
                   solver_stats=replace(stats, gap=stats.gap / c ** 2))


def diamond_norm(phi: SuperOp, options: NormOptions | None = None) -> NormResult:
    """Completely bounded trace norm with a verifiable certificate."""
    opt = options or NormOptions()
    if opt.method not in ("auto", "general", "channel-diff"):
        raise InvalidInputError(f"unknown method {opt.method!r}")
    is_pair = isinstance(phi.rep, superop.ChannelDifference)
    if opt.method == "channel-diff" and not is_pair:
        raise InvalidInputError(
            "channel-diff route requires a channel-difference representation"
        )

    j = to_choi(phi)
    if not j.any():
        return _trivial_zero_result(
            phi, "channel_diff_sdp" if is_pair and opt.method != "general"
            else "general_sdp"
        )
    if opt.method != "channel-diff":
        pair = superop._stinespring_of_choi(j, phi.dim_in, phi.dim_out)
        # Newton-system rows: 1 + r^2 here against 1 + (mn)^2; ties go to
        # the channel-difference route.
        if not is_pair or opt.method == "general" or \
                pair.dim_env < phi.dim_in * phi.dim_out:
            return _solve_route("general", (pair,), opt)
    return _solve_route("channel-diff", (phi, (j + j.conj().T) / 2), opt)


def cb_spectral_norm(phi: SuperOp, options: NormOptions | None = None) -> NormResult:
    """Completely bounded spectral norm: the trace-norm value of the adjoint."""
    res = diamond_norm(superop.adjoint(phi), options)
    return replace(res, method=res.method + "_of_adjoint")


@dataclass(frozen=True)
class CertificateCheck:
    valid: bool
    lower: float
    upper: float
    violations: tuple


def verify_certificate(phi: SuperOp, cert, tol: float = 1e-6) -> CertificateCheck:
    """Re-verify a certificate from scratch without solving.

    Only basic linear algebra is used; bounds come from the certificate by
    direct arithmetic and are valid whenever ``valid`` is true.
    """
    violations = []
    n, m = phi.dim_in, phi.dim_out
    if isinstance(cert, GeneralCertificate):
        a, b, r = cert.pair.a, cert.pair.b, cert.pair.dim_env
        if a.shape != (m * r, n) or cert.rho.shape != (n, n) or \
                cert.w.shape != (m * r, m * r) or cert.z.shape != (r, r):
            raise InvalidInputError("certificate dimensions do not match map")
        # The pair must actually represent phi: block (i, k) of its Choi
        # matrix, Tr_Z(A E_ik B^dag), against phi(E_ik).
        choi = np.einsum("yzi,Yzk->ikyY", a.reshape(m, r, n),
                         b.reshape(m, r, n).conj())
        ref = to_choi(phi).reshape(m, n, m, n).transpose(1, 3, 0, 2)
        dev = np.linalg.norm(choi - ref, 2, axis=(-2, -1))
        scale = 1.0 + spectral_norm(a) * spectral_norm(b)
        for i, k in np.argwhere(dev > max(tol, superop.RECON_TOL) * scale):
            violations.append(
                f"stinespring pair does not reproduce the map on E[{i},{k}]"
            )
        tr_dev = abs(float(np.trace(cert.rho).real) - 1.0)
        if tr_dev > tol:
            violations.append(f"Tr(rho) deviates from 1 by {tr_dev:.3e}")
        if min_eigenvalue(cert.rho) < -tol:
            violations.append("rho is not PSD")
        if min_eigenvalue(cert.w) < -tol:
            violations.append("W is not PSD")
        marg = partial_trace(cert.w, (m, r), side="first") - partial_trace(
            a @ cert.rho @ a.conj().T, (m, r), side="first"
        )
        if max_eigenvalue(marg) > tol:
            violations.append(
                f"Tr_Y(W) exceeds Tr_Y(A rho A^dag) by {max_eigenvalue(marg):.3e}"
            )
        if min_eigenvalue(cert.z) < -tol:
            violations.append("Z is not PSD")
        dual_marg = b @ b.conj().T - kron(np.eye(m), cert.z)
        if max_eigenvalue(dual_marg) > tol:
            violations.append(
                f"1 (x) Z fails to dominate B B^dag by "
                f"{max_eigenvalue(dual_marg):.3e}"
            )
        lower, upper = _general_certificate_bounds(cert)
        if cert.lam < upper ** 2 - tol * (1.0 + upper ** 2):
            violations.append("lambda is below |A^dag(1 (x) Z)A|_inf")
        return CertificateCheck(not violations, lower, upper, tuple(violations))

    if isinstance(cert, ChannelDiffCertificate):
        j = to_choi(phi)
        j = (j + j.conj().T) / 2
        if cert.rho.shape != (n, n) or cert.w.shape != (m * n, m * n) or \
                cert.z.shape != (m * n, m * n):
            raise InvalidInputError("certificate dimensions do not match map")
        tr_dev = abs(float(np.trace(cert.rho).real) - 1.0)
        if tr_dev > tol:
            violations.append(f"Tr(rho) deviates from 1 by {tr_dev:.3e}")
        if min_eigenvalue(cert.rho) < -tol:
            violations.append("rho is not PSD")
        if min_eigenvalue(cert.w) < -tol:
            violations.append("W is not PSD")
        marg = cert.w - kron(np.eye(m), cert.rho)
        if max_eigenvalue(marg) > tol:
            violations.append(
                f"W exceeds 1 (x) rho by {max_eigenvalue(marg):.3e}"
            )
        if min_eigenvalue(cert.z) < -tol:
            violations.append("Z is not PSD")
        if max_eigenvalue(j - cert.z) > tol:
            violations.append(
                f"Z fails to dominate J(phi) by {max_eigenvalue(j - cert.z):.3e}"
            )
        lower, upper = _channel_diff_certificate_bounds(phi, j, cert)
        return CertificateCheck(not violations, lower, upper, tuple(violations))

    raise InvalidInputError(f"unknown certificate type {type(cert).__name__}")


def rebalance_stinespring(pair: StinespringPair, eps: float,
                          options: NormOptions | None = None) -> StinespringPair:
    """Rescale a Stinespring pair so the product of spectral norms is within
    ``eps`` of the completely bounded trace norm.

    Uses the dual witness ``Z`` of the general SDP, regularized to be
    positive definite, and returns
    ``((1 (x) Z^{1/2}) A, (1 (x) Z^{-1/2}) B)``.
    """
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    a, b, r = pair.a, pair.b, pair.dim_env
    a_norm = spectral_norm(a)
    if a_norm == 0.0 or spectral_norm(b) == 0.0:
        raise InvalidInputError("rebalancing requires a nonzero map")
    m = a.shape[0] // r
    # Solve the general SDP on the *given* pair: the dual witness must
    # dominate this pair's B B^dag, and strict dual feasibility holds for
    # any pair, minimal or not.
    z = _solve_route("general", (pair,), options or NormOptions()).certificate.z
    delta = max(eps ** 2 / (4.0 * a_norm ** 2),
                1e-12 * spectral_norm(z))
    z_reg = z + delta * np.eye(r)
    vals, vecs = herm_eig(z_reg)
    z_half = (vecs * np.sqrt(vals)) @ vecs.conj().T
    z_inv_half = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    a_new = kron(np.eye(m), z_half) @ a
    b_new = kron(np.eye(m), z_inv_half) @ b
    return StinespringPair(a_new, b_new, r)

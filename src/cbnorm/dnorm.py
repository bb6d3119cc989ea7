"""Completely bounded norms via semidefinite programming, with certificates.

Every super-operator, a difference of channels included, takes one route:
for a minimal Stinespring pair ``(A, B)`` of the map, the squared norm is
the optimum of

    maximize <B B^dag, W>  s.t.  Tr_Y(W) = Tr_Y(A X A^dag), Tr X = 1

with dual  minimize lambda  s.t.  lambda 1 >= A^dag(1 (x) Z)A,
1 (x) Z >= B B^dag.

The paper states every constraint with ``<=``.  Those written with ``=``
here are tight at some optimum, so the optimum is the same: ``B B^dag >= 0``
lets ``W + (1_m / m) (x) Delta`` close a gap ``Delta`` in the marginal
without lowering the objective, and scaling by ``1 / Tr X`` does not lower
it either.  Held as equalities, they need no slack block in the solver, and
their duals need no sign constraint: the dual constraints already force
``Z >= 0`` and ``lambda >= 0``.

The certificate is that of Watrous's simpler SDP (Chicago J. Theor.
Comput. Sci. 2013), which states the norm by the Choi matrix ``J`` on ``Y
(x) X`` alone.  States ``rho``, ``sigma`` on ``X`` bound it below by
``|(1 (x) sqrt(rho)^T) J (1 (x) sqrt(sigma)^T)|_1``; ``Y0``, ``Y1`` with
``[[Y0, -J], [-J^dag, Y1]] >= 0`` bound it above by
``sqrt(lambda_max(Tr_Y Y0) lambda_max(Tr_Y Y1))`` (Watrous's dual objective
``(|Tr_Y Y0| + |Tr_Y Y1|) / 2`` at ``(t Y0, Y1 / t)``, the best ``t``).  Any
``Z > 0`` of the dual above gives ``Y0 = A' Z^T A'^dag`` and ``Y1 = B'
(Z^T)^-1 B'^dag`` (``A'``, ``B'`` the reshapes of ``to_choi``, ``J = A'
B'^dag``), whose block matrix is ``G [[Z^T, -1], [-1, Z^-T]] G^dag >= 0``
by construction, with the bound ``lambda_max(A^dag (1 (x) Z) A)
lambda_max(B^dag (1 (x) Z^-1) B)``: the squared norm at the optimum.
``rho`` and ``sigma`` are the states ``u u^dag``, ``v v^dag`` of the
ascent's unit vectors on ``X (x) W``, and their bound is the ascent's value
there.  So the bounds are sound whatever the solver's termination state,
``numerical_failure`` included (only a non-finite last iterate raises), and
``diamond_norm`` reports those that :func:`verify_certificate` computes from
the certificate and ``J``.

The route scales its pair by powers of two to spectral norms in [1, 2), so
its tolerances (the solver's gap test too) are relative; the certificate is
built on the pair itself.  It first tries the alternating ascent, which
bounds the norm below and, every fifth sweep (one ``verbose`` line each), by
Alberti's dual ``Z = P^-1 # Q`` of the marginals above, to a width of
``gap_tol / 100``, where that pays: at input dimension one (one sweep is
exact; the fidelity SDP is one), where the sweeps cost fewer flops than a
Newton system, ``ASCENT_SWEEPS ((mn)^3 + n^6) <= (1 + r^2)^3`` (``r`` the
Choi rank), and at ``r <= 2`` for ``n, m <= 5``, where a solve's dozen
iterations of Python overhead outweigh the sweeps (beyond that, the sweep's
``n^2 x n^2`` SVD costs more, and 6x6 maps were slower on it).  At a
full-rank optimum ``A^dag (1 (x) Z) A`` is degenerate at the top, so
Alberti's bound lags the states to first order; there one least-norm Newton
step toward ``A^dag (1 (x) Z) A = c0 1``, ``B^dag (1 (x) Z^-1) B = c1 1``
corrects ``Z`` to second order, and the smaller bound is kept.  The step
runs where its linearized system is underdetermined, ``r^2 + 2 >= 2 n^2``.
The ascent leaves the map to the interior-point solve (``Psi^*`` declared
once, by its terms in ``A``) when ``P`` is singular or the width
contracts too slowly; it takes the solve's ``Z`` and polishes its states by
sweeps, from them and from their optimal face (eigenvalues below
``sqrt(rel_gap)`` of the largest dropped: El-Bakry, Tapia and Zhang, SIAM
Rev. 36, 1994), whichever sweeps higher.  A bracket certified to
``gap_tol`` is ``optimal`` whatever the solver's last status.  A call forms
``J`` once (only ``J = 0`` takes the zero result); the Stinespring pair is
its SVD, cut at ``RANK_TOL``, and the certificate adds the largest singular
value cut to ``Y0`` and ``Y1``.
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
    trace_norm,
)
from .sdp import BlockStructure, SdpProblem, SolveOptions, solve
from .superop import StinespringPair, SuperOp, to_choi

# Sweep budget of the certified ascent (_ascent_general).
ASCENT_SWEEPS = 100

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Certificate:
    """Certificate format "2" (module docstring): input states ``rho`` and
    ``sigma`` for the lower bound, ``Y0`` and ``Y1`` for the upper."""

    rho: np.ndarray
    sigma: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


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


@dataclass(frozen=True)
class NormOptions:
    method: str = "auto"  # auto | general: the same route
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    verbose: bool = False

    def __post_init__(self):
        if self.method not in ("auto", "general"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        self.solve_options()  # checks the tolerances and max_iter

    def solve_options(self) -> SolveOptions:
        return SolveOptions(gap_tol=self.gap_tol, feas_tol=self.feas_tol,
                            max_iter=self.max_iter, verbose=self.verbose)


def build_general_sdp(pair: StinespringPair) -> SdpProblem:
    """Triple-form problem whose primal optimum is the squared norm."""
    a, b, r = pair.a, pair.b, pair.dim_env
    if a.shape != b.shape or a.shape[0] % r != 0:
        raise InvalidInputError("inconsistent Stinespring pair dimensions")
    m = a.shape[0] // r
    n = a.shape[1]
    var = BlockStructure((n, m * r))
    con = BlockStructure((1, r))
    obj = [np.zeros((n, n)), b @ b.conj().T]
    rhs = [np.eye(1), np.zeros((r, r))]
    # Psi^*(lam, Z) = (lam 1_n - A^dag (1_m (x) Z) A, 1_m (x) Z), the one
    # declaration of the map: sdp forms X's rows from A and embeds W, and
    # reads Psi(X, W) = (Tr X, Tr_Y(W - A X A^dag)) from them.  Equalities:
    # W + (1_m / m) (x) Delta and X / Tr X never lower the value.
    return SdpProblem.from_maps(
        var, con, {0: [(0, n, None, 1), (1, m, a, -1)], 1: [(1, m, None, 1)]},
        obj, rhs, equality=(0, 1))


def _normalized_state(x, n):
    """Positive part of ``x`` scaled to unit trace; ``1/n`` when that part
    carries no more than 1e-8 of the trace norm of ``x`` (at any scale)."""
    vals, vecs = herm_eig(x)
    rho = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    tr = float(np.trace(rho).real)
    if tr > 1e-8 * float(np.abs(vals).sum()):
        return rho / tr
    return np.eye(n, dtype=complex) / n


def _purification(rho, floor=0.0):
    """Unit vector on ``X (x) W`` (as an ``n x n`` matrix) whose reduced
    state on ``X`` is the state ``rho``, with its eigenvalues below
    ``floor`` of the largest dropped (then renormalized)."""
    vals, vecs = herm_eig(rho)
    mat = vecs * np.sqrt(np.where(vals >= floor * vals[0], vals, 0.0))
    return mat / np.linalg.norm(mat)


def _polar_adjoint(at, bt, u, v):
    """``U^dag`` ((Y, W), (y, w)) for the polar factor of ``t s^dag``, with
    ``t = (A (x) 1) u`` and ``s = (B (x) 1) v`` indexed ((y, w), z)."""
    t, s = (np.swapaxes(x @ y, 1, 2).reshape(-1, x.shape[1])
            for x, y in ((at, u), (bt, v)))
    p, _, qh = np.linalg.svd(t @ s.conj().T)
    return (p @ qh).conj().T


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
    uh = _polar_adjoint(at, bt, u_mat, v_mat)
    pk, sk, qkh = np.linalg.svd(_sweep_operator(h, uh))
    return qkh[0, :].conj().reshape(n, nw), pk[:, 0].reshape(n, nw), \
        float(sk[0])


def _ascent_loop(at, bt, h, u_mat, v_mat, prev=-np.inf, max_iters=300,
                 tol=1e-13):
    """``(u, v, sweeps)``: :func:`_ascent_sweep` from ``(u, v)``, of value
    ``prev``, until the value moves by at most ``tol`` relative."""
    for sweeps in range(1, max_iters + 1):
        u_mat, v_mat, obj = _ascent_sweep(at, bt, h, u_mat, v_mat)
        if abs(obj - prev) <= tol * obj:
            break
        prev = obj
    return u_mat, v_mat, sweeps


def _polish(pair, sol):
    """``(u, v, summary)`` of the ascent from the states of the solve
    ``sol``, ``rho0`` and the normalized ``B^dag W B`` (proportional to the
    optimal output-side state), or from their face: their eigenvalues below
    ``sqrt(rel_gap)`` of the largest dropped.  One sweep runs from each
    start, then sweeps go on from the higher value."""
    n = pair.a.shape[1]
    x1 = pair.b.conj().T @ sol.X_opt[1] @ pair.b
    states = [_normalized_state(x, n)
              for x in (sol.X_opt[0], (x1 + x1.conj().T) / 2)]
    floor = min(1.0, np.sqrt(sol.gap / max(1.0, abs(sol.primal_value),
                                           abs(sol.dual_value))))
    cut = sum(int(np.sum(vals < floor * vals[0]))
              for vals, _ in map(herm_eig, states))
    at, bt, h = _sweep_operands(pair)
    first = {k: _ascent_sweep(at, bt, h, *[_purification(x, f)
                                           for x in states])
             for k, f in (("solver", 0.0), ("face", floor))[:1 + bool(cut)]}
    start = max(first, key=lambda k: first[k][2])
    u, v, sweeps = _ascent_loop(at, bt, h, *first[start])
    return u, v, f"start {start}  cut {cut}  sweeps {len(first) + sweeps}"


def _certificate(pair, rho, sigma, z, dropped=0.0):
    """The certificate of the states ``rho``, ``sigma`` and a dual ``Z`` of
    ``pair`` (module docstring), and the ``Z`` it holds: that ``Z`` with its
    eigenvalues lifted to a rounding floor (``1`` when none is positive), so
    ``Z > 0``, and scaled so that ``Y0`` and ``Y1`` have one trace (the
    block matrix is then tested at the scale of the norm).  ``Y0`` and
    ``Y1`` are the Gram matrices of ``A' conj(V) D^(1/2)`` and ``B' conj(V)
    D^(-1/2)``, ``Z = V D V^dag``; ``Y0`` carries an allowance for
    rounding, so that bounds which meet are not inverted.  When ``pair`` is
    a rank cut of the map, ``J = A' B'^dag + E`` with ``|E|_2 <= dropped``,
    both get ``dropped 1``: ``[[dropped 1, -E], [-E^dag, dropped 1]] >= 0``."""
    n, r = pair.a.shape[1], pair.dim_env
    m = pair.a.shape[0] // r
    vals, vecs = herm_eig(z)
    vals = np.maximum(vals, r * EPS * vals[0]) if vals[0] > 0 else np.ones(r)
    f0, f1 = (superop._choi_factor(x, m, r) @ vecs.conj() * vals ** e
              for x, e in ((pair.a, 0.5), (pair.b, -0.5)))
    if f0.any() and f1.any():  # Z -> t^2 Z
        t = np.sqrt(np.linalg.norm(f1) / np.linalg.norm(f0))
        f0, f1, vals = t * f0, f1 / t, t * t * vals
    shift = dropped * np.eye(m * n)
    y0 = (1 + 8 * (m * n + r) * EPS) * (f0 @ f0.conj().T) + shift
    return Certificate(rho, sigma, y0, f1 @ f1.conj().T + shift), \
        (vecs * vals) @ vecs.conj().T


def _certificate_bounds(j, cert: Certificate) -> tuple:
    """``(lower, upper)`` of ``cert`` for the map of Choi matrix ``j``
    (module docstring); the states' negative parts are dropped."""
    n = len(cert.rho)
    m = len(j) // n
    left, right = (kron(np.eye(m), ((vecs * np.sqrt(np.maximum(vals, 0.0)))
                                    @ vecs.conj().T).T)
                   for vals, vecs in map(herm_eig, (cert.rho, cert.sigma)))
    lower = trace_norm(left @ j @ right)
    upper = np.sqrt(np.prod([max(0.0, max_eigenvalue(
        partial_trace(y, (m, n), side="first"))) for y in (cert.y0, cert.y1)]))
    return lower, float(upper)


def _geometric_mean(p, q):
    """Alberti's ``Z = P^-1 # Q = P^-1/2 (P^1/2 Q P^1/2)^1/2 P^-1/2`` (the
    inner root above rounding level), with ``<P, Z> = <Q, Z^-1> = F(P, Q)``,
    and ``Z^-1 = P # Q^-1 = P^1/2 (P^1/2 Q P^1/2)^-1/2 P^1/2`` from the same
    two eigendecompositions (``None`` for a singular ``Z``); ``None`` for a
    ``P`` singular at rounding level."""
    vals, vecs = herm_eig(p)
    rounding = len(p) * EPS  # relative to the largest one
    if not vals[-1] > rounding * vals[0]:
        return None
    root, inv_root = ((vecs * vals ** e) @ vecs.conj().T for e in (0.5, -0.5))
    mvals, mvecs = herm_eig(root @ q @ root)
    roots = np.sqrt(np.where(mvals > rounding * max(mvals[0], 0), mvals, 0.0))
    z = inv_root @ ((mvecs * roots) @ mvecs.conj().T) @ inv_root
    return z, root @ ((mvecs / roots) @ mvecs.conj().T) @ root \
        if roots[-1] > 0 else None


def _gram(xt):
    """Matrix of ``D -> sum_y X_y^dag D X_y`` for ``X`` indexed (Y, Z, X),
    rows ``(a, b)`` and columns ``(i, j)`` row-major."""
    return np.tensordot(xt.conj(), xt, axes=(0, 0)).transpose(
        1, 3, 0, 2).reshape(xt.shape[2] ** 2, -1)


def _dual_bound(at, bt, z, z_inv):
    """Upper bound of ``Z``: the root of ``lambda_max`` of ``A^dag (1 (x) Z)
    A`` times that of ``B^dag (1 (x) Z^-1) B``, and those two matrices."""
    n = at.shape[2]
    g = [x.reshape(-1, n).conj().T @ (y @ x).reshape(-1, n)
         for x, y in ((at, z), (bt, z_inv))]
    return np.sqrt(np.prod([np.linalg.eigvalsh(x)[-1] for x in g])), g


def _newton_dual(at, bt, gram_a, z, z_inv, g):
    """``(upper, Z + D)`` as :func:`_dual_bound` gives them, ``None`` unless
    ``Z + D > 0``: ``D`` the least-norm step toward ``A^dag (1 (x) Z) A =
    c0 1``, ``B^dag (1 (x) Z^-1) B = c1 1`` (optimality at a full-rank
    optimum, ``g`` their left sides at ``Z``) linearized in ``Z``, ``c0``
    and ``c1``, by normal equations; ``gram_a`` is :func:`_gram` of ``A``."""
    n, r = len(g[0]), len(z)
    e = np.eye(n).reshape(-1)
    gram = np.vstack([gram_a, -_gram(z_inv @ bt)])  # d(Z^-1) = -Z^-1 D Z^-1
    rhs = np.concatenate([np.trace(x).real / n * e - x.reshape(-1) for x in g])
    lhs = gram @ gram.conj().T + np.kron(np.eye(2), np.outer(e, e))
    try:
        y = np.linalg.solve(lhs, rhs)
        step = (gram.conj().T @ y).reshape(r, r)
        z_new = z + (step + step.conj().T) / 2
        if np.linalg.eigvalsh(z_new)[0] > 0:  # false for a non-finite step
            return _dual_bound(at, bt, z_new, np.linalg.inv(z_new))[0], z_new
    except np.linalg.LinAlgError:
        pass
    return None


def _ascent_general(pair, opt):
    """``(u, v, Z)`` of the ascent (module docstring) from maximally mixed
    states; ``None`` (the solve takes over) outside the rule, for a singular
    ``P`` or ``Z``, or when the width's contraction predicts the target past
    the budget.  At ``n = 1`` one sweep is exact: no target."""
    r, n = pair.dim_env, pair.a.shape[1]
    m = pair.a.shape[0] // r
    if not (n == 1 or ASCENT_SWEEPS * ((m * n) ** 3 + n ** 6) <=
            (1 + r * r) ** 3 or (r <= 2 and max(n, m) <= 5)):
        return None
    at, bt, h = _sweep_operands(pair)
    u = v = _purification(np.eye(n) / n)
    budget, target = (1, np.inf) if n == 1 else \
        (ASCENT_SWEEPS, opt.gap_tol / 100)
    # The Newton step needs its linearized system underdetermined.
    gram_a = _gram(at) if n > 1 and r * r + 2 >= 2 * n * n else None
    best, widths = (np.inf, None), []
    for sweep in range(1, budget + 1):
        u, v, lower = _ascent_sweep(at, bt, h, u, v)
        if sweep % 5 and sweep < budget:
            continue
        # Marginals Tr_Y(A rho0 A^dag) = Tr_{Y,W}(t t^dag), t = (A (x) 1) u.
        t, s = (np.swapaxes(x @ y, 0, 1).reshape(r, -1)
                for x, y in ((at, u), (bt, v)))
        mean = _geometric_mean(t @ t.conj().T, s @ s.conj().T)
        if mean is None or (n > 1 and mean[1] is None):
            return None
        if n == 1:  # P^-1 # Q is the optimal dual
            return u, v, mean[0]
        upper, g = _dual_bound(at, bt, *mean)
        candidates = [(upper, mean[0])]
        if gram_a is not None:
            candidates.append(_newton_dual(at, bt, gram_a, *mean, g))
        best = min(best, *filter(None, candidates), key=lambda b: b[0])
        widths.append((best[0] - lower) / best[0])
        if opt.verbose:
            print(f"sweep {sweep:3d}  lower {lower: .9e}  upper {best[0]: .9e}"
                  f"  width {widths[-1]:.3e}", file=sys.stderr)
        if widths[-1] <= target:
            return u, v, best[1]
        # Extrapolate from the slowest contraction so far.
        rates = [w / w0 for w0, w in zip(widths, widths[1:])]
        if rates and not (max(rates) < 1 and sweep + 5 * np.log(
                target / widths[-1]) / np.log(max(rates)) <= budget):
            return None


def _solve_route(pair: StinespringPair, opt: NormOptions, j=None,
                 dropped=0.0) -> tuple:
    """``(result, Z)`` for the map of ``pair``: the ascent, or build, solve
    and polish, on ``pair`` scaled by powers of two (module doc); the
    certificate of the ``Z`` returned is bounded against ``j``, the Choi
    matrix of the map (by default the pair's), of which ``pair`` drops
    singular values up to ``dropped``."""
    n, r = pair.a.shape[1], pair.dim_env
    m = pair.a.shape[0] // r
    sa, sb = (np.ldexp(1.0, 1 - np.frexp(spectral_norm(x))[1])
              for x in (pair.a, pair.b))
    c = sa * sb
    scaled = StinespringPair(sa * pair.a, sb * pair.b, r)
    found, estimate, stats = _ascent_general(scaled, opt), 0.0, None
    if found is None:
        # build_general_sdp is looked up at call time, so wrappers installed
        # on the module see it.
        sol = solve(build_general_sdp(scaled), opt.solve_options())
        if not all(np.isfinite(x).all() for x in (*sol.X_opt, *sol.Y_opt)):
            raise NumericalFailureError("interior-point solve failed")
        u, v, polish = _polish(scaled, sol)
        found = (u, v, sol.Y_opt[1])
        # The SDP value is the squared norm.
        estimate = np.sqrt(max(0.0, (sol.primal_value + sol.dual_value) / 2))
        stats = SolverStats(sol.status, sol.iterations, sol.gap / c ** 2,
                            sol.primal_infeas, sol.dual_infeas)
    u, v, z = found
    cert, z = _certificate(pair, u @ u.conj().T, v @ v.conj().T, z, dropped)
    lower, upper = _certificate_bounds(
        to_choi(SuperOp(n, m, pair)) if j is None else j, cert)
    if stats and opt.verbose:
        print(f"polish  {polish}  lower {lower: .9e}  solver {stats.status}",
              file=sys.stderr)
    # A bracket certified to gap_tol is optimal, whatever the last iterate.
    if stats and upper - lower <= opt.gap_tol * upper:
        stats = replace(stats, status="optimal")
    stats = stats or SolverStats("optimal", 0, abs(upper ** 2 - lower ** 2),
                                 0.0, 0.0)
    warnings = () if stats.status == "optimal" else (
        f"solver status {stats.status}; bounds widened",)
    return NormResult(min(max(estimate / c, lower), upper), lower, upper,
                      "general_sdp", cert, stats, warnings), z


def diamond_norm(phi: SuperOp, options: NormOptions | None = None) -> NormResult:
    """Completely bounded trace norm with a verifiable certificate."""
    opt = options or NormOptions()
    n, m = phi.dim_in, phi.dim_out
    j = to_choi(phi)
    if not j.any():
        state, zero = np.eye(n) / n, np.zeros((m * n, m * n))
        return NormResult(0.0, 0.0, 0.0, "general_sdp",
                          Certificate(state, state, zero, zero),
                          SolverStats("optimal", 0, 0.0, 0.0, 0.0))
    pair, dropped = superop._stinespring_of_choi(j, n, m)
    return _solve_route(pair, opt, j, dropped)[0]


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

    Only basic linear algebra on the Choi matrix ``J`` of ``phi`` is used:
    two state checks, one PSD test of ``[[Y0, -J], [-J^dag, Y1]]``, two
    partial traces and one trace norm.  The bounds are valid whenever
    ``valid`` is true (``lower > upper`` is a violation).  ``tol`` is
    absolute for the states, and relative to ``|J|_2``, which a certificate
    cannot inflate, for the block matrix's smallest eigenvalue.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise InvalidInputError(f"tol must be finite and non-negative, got {tol}")
    if not isinstance(cert, Certificate):
        raise InvalidInputError(
            f"unknown certificate type {type(cert).__name__}")
    n, mn = phi.dim_in, phi.dim_in * phi.dim_out
    if cert.rho.shape != (n, n) or cert.sigma.shape != (n, n) or \
            cert.y0.shape != (mn, mn) or cert.y1.shape != (mn, mn):
        raise InvalidInputError("certificate dimensions do not match map")
    j = to_choi(phi)
    violations = []
    for name, state in (("rho", cert.rho), ("sigma", cert.sigma)):
        tr_dev = abs(float(np.trace(state).real) - 1.0)
        if tr_dev > tol:
            violations.append(f"Tr({name}) deviates from 1 by {tr_dev:.3e}")
        if min_eigenvalue(state) < -tol:
            violations.append(f"{name} is not PSD")
    smallest = min_eigenvalue(np.block([[cert.y0, -j], [-j.conj().T, cert.y1]]))
    if smallest < -tol * spectral_norm(j):
        violations.append(
            f"[[Y0, -J], [-J^dag, Y1]] has eigenvalue {smallest:.3e}")
    lower, upper = _certificate_bounds(j, cert)
    if lower > upper:
        violations.append(
            f"lower bound {lower:.3e} exceeds upper bound {upper:.3e}")
    return CertificateCheck(not violations, lower, upper, tuple(violations))


def rebalance_stinespring(pair: StinespringPair, eps: float,
                          options: NormOptions | None = None) -> StinespringPair:
    """Rescale a Stinespring pair so the product of spectral norms is within
    ``eps`` of the completely bounded trace norm.

    Uses the dual witness ``Z`` of the general SDP, scaled so that ``1 (x) Z
    >= B B^dag`` and regularized to be positive definite, and returns
    ``((1 (x) Z^{1/2}) A, (1 (x) Z^{-1/2}) B)``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise InvalidInputError(f"eps must be finite and positive, got {eps}")
    a, b, r = pair.a, pair.b, pair.dim_env
    a_norm = spectral_norm(a)
    if a_norm == 0.0 or spectral_norm(b) == 0.0:
        raise InvalidInputError("rebalancing requires a nonzero map")
    m, n = a.shape[0] // r, a.shape[1]
    # Solve the general SDP on the *given* pair: the dual witness must
    # dominate this pair's B B^dag, and strict dual feasibility holds for
    # any pair, minimal or not.
    res, z = _solve_route(pair, options or NormOptions())
    # lambda_max(Tr_Y Y1) = lambda_max(B^dag (1 (x) Z^-1) B) scales Z to
    # 1 (x) Z >= B B^dag.
    z = z * max_eigenvalue(partial_trace(res.certificate.y1, (m, n),
                                         side="first"))
    delta = max(eps ** 2 / (4.0 * a_norm ** 2),
                1e-12 * spectral_norm(z))
    z_reg = z + delta * np.eye(r)
    vals, vecs = herm_eig(z_reg)
    z_half = (vecs * np.sqrt(vals)) @ vecs.conj().T
    z_inv_half = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    a_new = kron(np.eye(m), z_half) @ a
    b_new = kron(np.eye(m), z_inv_half) @ b
    return StinespringPair(a_new, b_new, r)

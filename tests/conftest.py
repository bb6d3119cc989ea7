import numpy as np
import pytest

from cbnorm import superop
from cbnorm.dnorm import (
    Certificate,
    NormResult,
    SolverStats,
    _normalized_state,
)
from cbnorm.errors import InvalidInputError, NumericalFailureError
from cbnorm.linalg import (
    herm_eig,
    hermitian_part,
    kron,
    min_eigenvalue,
    partial_trace,
    spectral_norm,
)
from cbnorm.sdp import BlockStructure, SdpProblem, solve, svec, unsvec
from cbnorm.superop import SuperOp, to_choi


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    g = random_complex(rng, (d, d))
    return (g + g.conj().T) / 2


def random_psd(rng, d, rank=None):
    r = rank or d
    g = random_complex(rng, (d, r))
    return g @ g.conj().T


def random_density(rng, d, rank=None):
    p = random_psd(rng, d, rank)
    return p / np.trace(p).real


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(rng, rows, cols):
    """Columns orthonormal; requires rows >= cols."""
    q, r = np.linalg.qr(random_complex(rng, (rows, cols)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng, n, m, env=None):
    """Random channel from a Haar-ish Stinespring isometry."""
    r = env or max(1, min(n, m))
    v = random_isometry(rng, m * r, n)
    kraus = [v.reshape(m, r, n)[:, l, :] for l in range(r)]
    return SuperOp.from_kraus(kraus)


def random_superop(rng, n, m, terms=2, scale=1.0):
    """Generic (non-CP) map with independent left/right Kraus families."""
    left = [scale * random_complex(rng, (m, n)) for _ in range(terms)]
    right = [scale * random_complex(rng, (m, n)) for _ in range(terms)]
    return SuperOp.from_kraus(left, right)


def channel_diff_data(phi0, phi1):
    """``(phi, J)`` for ``build_channel_diff_sdp``: the difference of two
    channels and its Choi matrix."""
    phi = SuperOp.difference(phi0, phi1)
    return phi, to_choi(phi)


# The paper's SDP for a difference of channels, an oracle independent of the
# general route that ``diamond_norm`` takes:
#
#     maximize <J(phi), W>  s.t.  W <= 1 (x) rho, Tr rho = 1
#
# whose optimum is half the norm, with dual  minimize |Tr_Y(Z)|_inf
# s.t. Z >= J(phi).  ``Tr rho = 1`` is held as an equality: (rho, W) / Tr rho
# never lowers the value.  ``W <= 1 (x) rho`` keeps the paper's form, by a
# declared slack block ``S``: ``W - 1 (x) rho + S = 0``.


def build_channel_diff_sdp(phi, j):
    """The SDP above over ``(rho, W, S)``, whose primal optimum is half the
    norm of the channel difference ``phi``; ``j`` is its Choi matrix.  The
    SDP holds for a map whose ``J`` is Hermitian and trace-annihilating,
    ``Tr_Y J = 0``, as that of a difference of channels is, so ``j`` must be
    both (to ``2 TP_TOL max(1, |j|_2)``: the rounding of ``Tr_Y J`` is that
    of the two channels' Choi matrices, of order one at scale one)."""
    n, m = phi.dim_in, phi.dim_out
    j = hermitian_part(j)
    if spectral_norm(partial_trace(j, (m, n), side="first")) > \
            2 * superop.TP_TOL * max(1.0, spectral_norm(j)):
        raise InvalidInputError(
            "channel-diff SDP requires a trace-annihilating Choi matrix")
    eye_m = np.eye(m)
    # Psi^*(lam, Z) = (lam 1_n - Tr_Y Z, Z, Z), with Tr_Y Z = K^dag (1_m (x)
    # Z) K for K the stack of |y> (x) 1_n: the adjoint of channel_diff_psi.
    stack = np.vstack([kron(e[:, None], np.eye(n)) for e in eye_m])
    zero = np.zeros((m * n, m * n))
    return SdpProblem.from_maps(
        BlockStructure((n, m * n, m * n)), BlockStructure((1, m * n)),
        {0: [(0, n, None, 1), (1, m, stack, -1)], 1: [(1, 1, None, 1)],
         2: [(1, 1, None, 1)]},
        [np.zeros((n, n)), j, zero], [np.eye(1), zero])


def channel_diff_psi(blocks):
    """``Psi`` of :func:`build_channel_diff_sdp` written out: ``Psi(rho, W,
    S) = (Tr rho, W - 1_m (x) rho + S)``."""
    rho, w, s = blocks
    return [np.array([[np.trace(rho)]]),
            w - kron(np.eye(len(w) // len(rho)), rho) + s]


def norm_sdp_psi(pair):
    """``Psi`` of ``build_general_sdp(pair)`` written out from the paper:
    ``Psi(X, W) = (Tr X, Tr_Y(W - A X A^dag))``."""
    a, r = pair.a, pair.dim_env
    m = a.shape[0] // r

    def psi(blocks):
        x, w = blocks
        return [np.array([[np.trace(x)]]),
                partial_trace(w - a @ x @ a.conj().T, (m, r), side="first")]

    return psi


def _psd_part(mat):
    vals, vecs = herm_eig(mat)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T


def _repair_channel_diff_certificate(phi, j, sol):
    """``(rho, W, Z)`` made exactly feasible from the solver's last iterate."""
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
    z = _psd_part(sol.Y_opt[1])
    shift = max(0.0, -min_eigenvalue(z - j))
    if shift > 0:
        z = z + shift * np.eye(m * n)
    return rho, (w + w.conj().T) / 2, z


def channel_diff_norm(phi):
    """The norm of the channel difference ``phi`` by the SDP above at the
    default tolerances, as a ``NormResult`` (method ``channel_diff_sdp``):
    its bounds are the SDP's own, ``2 <J, W>`` and ``2 |Tr_Y(Z)|_inf``, sound
    whatever the solver's status, and its certificate, which
    ``verify_certificate`` checks, their Choi form ``(rho^T, rho^T, 2 Z - J,
    2 Z - J)``: ``Z >= J``, ``Z >= 0`` and ``Tr_Y J = 0`` make
    ``[[2 Z - J, -J], [-J, 2 Z - J]] >= 0`` with ``Tr_Y(2 Z - J) = 2 Tr_Y Z``."""
    n, m = phi.dim_in, phi.dim_out
    j = hermitian_part(superop.to_choi(phi))
    sol = solve(build_channel_diff_sdp(phi, j))
    if not all(np.isfinite(x).all() for x in (*sol.X_opt, *sol.Y_opt)):
        raise NumericalFailureError("interior-point solve failed")
    rho, w, z = _repair_channel_diff_certificate(phi, j, sol)
    lower = 2.0 * max(0.0, float(np.vdot(j, w).real))
    upper = 2.0 * np.linalg.norm(partial_trace(z, (m, n), side="first"), 2)
    value = min(max(sol.primal_value + sol.dual_value, lower), upper)
    y = 2 * z - j
    return NormResult(value, lower, upper, "channel_diff_sdp",
                      Certificate(rho.T, rho.T, y, y),
                      SolverStats(sol.status, sol.iterations, sol.gap,
                                  sol.primal_infeas, sol.dual_infeas))


def probed_rows(psi, var, b):
    """Rows of variable block ``b`` probed from ``psi`` alone: ``Psi`` of
    each basis element ``E_i`` of the block, transposed, ``row_j = sum_i
    <F_j, Psi(E_i)> E_i`` (the dense oracle of ``from_maps``'s terms)."""
    one = BlockStructure((var.blocks[b],))
    cols = []
    for e in np.eye(one.dof):
        x = var.zeros()
        x[b] = unsvec(e, one)[0]
        cols.append(svec(psi(x)))
    return np.array([unsvec(c, one)[0] for c in np.array(cols).T])


def dense_oracle(psi, prob):
    """The all-dense oracle of ``prob``: the same problem with the rows of
    every block probed from the written-out ``psi`` (:func:`probed_rows`),
    none embedded."""
    var = prob.var_structure
    rows = tuple(probed_rows(psi, var, b) for b in range(len(var.blocks)))
    return SdpProblem(var, prob.con_structure, rows, prob.obj, prob.rhs,
                      (None,) * len(rows))


def with_slacks(prob, blocks=None):
    """``prob`` with the constraints ``Psi(X)_c = B_c`` of ``blocks`` (by
    default all) relaxed to the paper's ``Psi(X)_c <= B_c``: a slack block
    ``S_c`` per constraint block, appended in order, with zero objective and
    the one term ``(c, 1, None, 1)``, so embedded as ``from_maps`` embeds
    it."""
    con = prob.con_structure
    blocks = range(len(con.blocks)) if blocks is None else blocks
    dims = tuple(con.blocks[c] for c in blocks)
    return SdpProblem(
        BlockStructure(prob.var_structure.blocks + dims), con,
        prob.rows + (None,) * len(dims),
        prob.obj + tuple(np.zeros((d, d), dtype=complex) for d in dims),
        prob.rhs, prob.embedded + tuple((c, 1) for c in blocks))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)

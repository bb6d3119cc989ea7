"""Semidefinite programs in the form

    maximize    <A, X>
    subject to  Psi(X) = B,   X >= 0

over block-diagonal Hermitian variables, together with a primal-dual
interior-point solver (Nesterov-Todd scaling, Mehrotra predictor-corrector).
The dual variable ``Y`` lives on the constraint-image structure, carries no
sign constraint, and satisfies ``Psi^*(Y) >= A`` at optimality.

A constraint ``Psi(X)_c <= B_c`` is declared by the caller as a slack block:
a variable block ``S_c`` with zero objective whose one term is ``(c, 1,
None, 1)`` (:meth:`SdpProblem.from_maps`), so ``Psi(X)_c + S_c = B_c``, and
the dual constraint on ``S_c`` is ``Y_c >= 0``.

The solve stops when the relative gap ``|p - d| / max(1, |p|, |d|)`` and
both relative infeasibilities are below their tolerances (other stops:
:func:`solve`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .linalg import (is_index, is_real, max_eigenvalue, min_eigenvalue,
                     spectral_norm)

GAP_TOL = 1e-8
FEAS_TOL = 1e-8
MAX_ITER = 200
STEP_FRACTION = 0.98
# The stall and divergence stops of solve.  In the tests, the gaps of
# converging solves fall 600-fold or more over STALL_WINDOW iterations, and
# optimal duals stay below 1e2.
STALL_WINDOW = 8
STALL_FACTOR = 0.5
DIVERGENCE_BOUND = 1e10


@dataclass(frozen=True)
class BlockStructure:
    """Ordered dimensions of the Hermitian blocks of a variable."""

    blocks: tuple

    def __post_init__(self):
        if not self.blocks or not all(is_index(d, low=1) for d in self.blocks):
            raise InvalidInputError("block dimensions must be integers >= 1")

    @property
    def dof(self) -> int:
        """Real degrees of freedom: sum of squared block dimensions."""
        return int(sum(d * d for d in self.blocks))

    def zeros(self):
        return [np.zeros((d, d), dtype=complex) for d in self.blocks]


def svec(blocks) -> np.ndarray:
    """Isometric real vectorization of a block Hermitian matrix: ``Re <F_j,
    M>`` over :func:`hermitian_basis` of each block in turn.  A block that is
    not Hermitian is read through its Hermitian part."""
    return np.concatenate([_embedded_a_op(m, 1, _svec_index(len(m)))
                           for m in blocks])


def unsvec(vec: np.ndarray, structure: BlockStructure):
    """``sum_j vec_j F_j`` per block: the inverse of :func:`svec`."""
    offsets = np.cumsum([0] + [d * d for d in structure.blocks])
    return [_embedded_a_adj(vec[lo:hi], 1, _svec_index(d))
            for lo, hi, d in zip(offsets, offsets[1:], structure.blocks)]


def hermitian_basis(d: int):
    """Orthonormal Hermitian basis of dimension ``d*d`` in svec order."""
    index = _svec_index(d)
    return [_embedded_a_adj(e, 1, index) for e in np.eye(d * d)]


def block_inner(a, b) -> float:
    """Real Hilbert-Schmidt inner product of block Hermitian matrices."""
    return float(sum(np.vdot(x, y).real for x, y in zip(a, b)))


def _placements(con_structure, embedded):
    """``(svec slice, k, _SvecIndex)`` of each variable block declared as
    ``(c, k)``, that is with rows ``1_k (x) F_j`` for the basis ``F_j`` of
    constraint block ``c``; ``None`` for a block with stored rows."""
    offsets = np.cumsum([0] + [d * d for d in con_structure.blocks])
    return [None if e is None else
            (slice(offsets[e[0]], offsets[e[0] + 1]), e[1],
             _svec_index(con_structure.blocks[e[0]]))
            for e in embedded]


def _rows_apply(rows, placements, x, m_con) -> np.ndarray:
    """``Re <row_j, X>`` for every constraint row ``j``: one product per
    block with stored rows, with no conjugated copy of them, and a partial
    trace per embedded block."""
    def part(r, place, xb):
        if place is None:
            return (r.reshape(m_con, -1) @ xb.conj().reshape(-1)).real
        sl, k, index = place
        out = np.zeros(m_con)
        out[sl] = _embedded_a_op(xb, k, index)
        return out

    return sum(part(*t) for t in zip(rows, placements, x))


def _rows_adj(rows, placements, yv):
    """``sum_j y_j row_j`` per variable block."""
    return [(yv @ r.reshape(len(yv), -1)).reshape(r.shape[1:]) if place is None
            else _embedded_a_adj(yv[place[0]], *place[1:])
            for r, place in zip(rows, placements)]


def _term_rows(kt, index):
    """``K^dag (1_k (x) F_j) K = c_j T_ab + h.c.`` for each element ``F_j =
    c_j E(a, b) + h.c.`` of ``hermitian_basis(index.r)``, with ``K`` indexed
    ``(y, a, i)`` and ``T_ab[i, j] = sum_y conj(K[y, a, i]) K[y, b, j]``."""
    a, b = (np.concatenate([x, x[index.r:]]) for x in (index.a, index.b))
    t = np.tensordot(kt.conj(), kt, axes=(0, 0))[a, :, b] * \
        index.coef[:, None, None]
    return t + t.conj().swapaxes(1, 2)


@dataclass(frozen=True)
class SdpProblem:
    """Problem ``max <A, X> s.t. Psi(X) = B, X >= 0`` given by its rows.

    Row ``j`` over all variable blocks is ``Psi^*(F_j)`` for the ``j``-th
    orthonormal Hermitian basis element ``F_j`` of the constraint image, so
    ``Psi(X) = sum_j <row_j, X> F_j``.  ``embedded[b]`` is ``(c, k)`` when
    block ``b`` is declared to have rows ``1_k (x) F_j`` for the basis of
    constraint block ``c`` and zero rows elsewhere; such a block stores no
    rows (``rows[b]`` is ``None``).  Every other block has ``embedded[b]``
    ``None`` and stores ``rows[b]`` of shape ``(con_dof, d_b, d_b)``.
    :meth:`from_maps` builds one from the terms of ``Psi^*`` alone: ``Psi``
    is read from the rows and embedded blocks (:meth:`apply_psi`), never
    declared apart from them.
    """

    var_structure: BlockStructure
    con_structure: BlockStructure
    rows: tuple = field(repr=False)
    obj: tuple = field(repr=False)
    rhs: tuple = field(repr=False)
    embedded: tuple

    @staticmethod
    def from_maps(var_structure, con_structure, terms: dict, obj, rhs):
        """Build a problem from the terms of ``Psi^*``, its one declaration.

        ``terms[b]`` lists the terms ``(c, k, K, s)`` of variable block
        ``b``: ``Psi^*(Y)_b = sum s K^dag (1_k (x) Y_c) K``, with ``s`` a
        real finite number and ``K`` a finite array of shape ``(k d_c,
        d_b)``, or ``None`` for the identity (then ``d_b = k d_c``); a block
        without terms has zero rows, and a key that is no block index is an
        error.  So ``Psi^*`` preserves Hermiticity,
        and ``Psi`` (:meth:`apply_psi`) is its adjoint by construction.  A
        block whose only term is ``(c, k, None, 1)`` is embedded
        (``SdpProblem``) and stores no rows.  The rows of every other block
        are formed here, term by term: ``s K^dag (1_k (x) F_j) K`` is ``s
        (c_j T_ab + h.c.)`` for ``F_j = c_j E(a, b) + h.c.`` and ``T_ab =
        sum_y K_y[a, :]^dag K_y[b, :]`` over the ``d_c``-row blocks ``K_y``
        of ``K``.  Every constraint block is held with ``=``; to hold block
        ``c`` with ``<=``, declare a slack block of dimension ``d_c``, zero
        objective and the one term ``(c, 1, None, 1)``.
        """
        obj = tuple(np.asarray(m, dtype=complex) for m in obj)
        rhs = tuple(np.asarray(m, dtype=complex) for m in rhs)
        for blocks, struct, name in ((obj, var_structure, "objective"),
                                     (rhs, con_structure, "rhs")):
            if [m.shape for m in blocks] != [(d, d) for d in struct.blocks]:
                raise InvalidInputError(f"{name} does not match its structure")
        n_con = len(con_structure.blocks)
        stray = [b for b in terms if not is_index(b, len(obj))]
        if stray:
            raise InvalidInputError(f"terms name no variable block: {stray!r}")
        terms = [terms.get(b, ()) for b in range(len(obj))]
        for ts, d in zip(terms, var_structure.blocks):
            for c, k, kk, s in ts:
                if not is_index(c, n_con):
                    raise InvalidInputError(
                        f"term names no constraint block: {c!r}")
                if not is_index(k):
                    raise InvalidInputError(
                        f"term multiplicity must be an integer >= 0: {k!r}")
                if ((d, d) if kk is None else np.shape(kk)) != \
                        (k * con_structure.blocks[c], d):
                    raise InvalidInputError("term shape mismatch")
                if not (is_real(s) and np.isfinite(s)):
                    raise InvalidInputError(
                        f"term coefficient must be real and finite: {s!r}")
                if kk is not None and not np.isfinite(kk).all():
                    raise InvalidInputError("term operator must be finite")
        embedded = tuple((ts[0][0], ts[0][1]) if len(ts) == 1 and
                         ts[0][2] is None and ts[0][3] == 1 else None
                         for ts in terms)

        m_con = con_structure.dof
        con_slots = _placements(con_structure, [(c, 1) for c in range(n_con)])
        rows = [None if e else np.zeros((m_con, d, d), dtype=complex)
                for d, e in zip(var_structure.blocks, embedded)]
        for row, ts, d in zip(rows, terms, var_structure.blocks):
            for c, k, kk, s in ts if row is not None else ():
                sl, _, index = con_slots[c]
                kt = (np.eye(d) if kk is None else np.asarray(kk)).reshape(
                    k, index.r, d)
                row[sl] += s * _term_rows(kt, index)

        return SdpProblem(var_structure, con_structure, tuple(rows), obj,
                          rhs, embedded)

    def apply_psi(self, x):
        """Evaluate ``Psi(X)`` through the stored rows and declared blocks."""
        con = self.con_structure
        placements = _placements(con, self.embedded)
        return unsvec(_rows_apply(self.rows, placements, x, con.dof), con)


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule and logging (to standard error) of :func:`solve`.

    A solve ends ``optimal`` when the relative gap
    ``|p - d| / max(1, |p|, |d|)`` is at most ``gap_tol`` and the primal
    and dual infeasibilities, relative to ``1 + |B|`` and ``1 + |A|``, are
    at most ``feas_tol``, all measured on the data scaled to
    ``|A| = |B| = 1``.  The gap test is relative for large objectives and
    absolute near a zero optimum, where a relative test could never pass.
    Both tolerances must be finite positive real numbers (not bools),
    ``max_iter`` an integer of at least 1.  Frozen, so checked once.
    """

    gap_tol: float = GAP_TOL
    feas_tol: float = FEAS_TOL
    max_iter: int = MAX_ITER
    verbose: bool = False

    def __post_init__(self):
        for name in ("gap_tol", "feas_tol"):
            value = getattr(self, name)
            if not (is_real(value) and np.isfinite(value) and value > 0):
                raise InvalidInputError(
                    f"{name} must be finite and positive, got {value!r}")
        if not is_index(self.max_iter, low=1):
            raise InvalidInputError(
                f"max_iter must be an integer >= 1, got {self.max_iter}")


@dataclass
class SdpSolution:
    status: str
    X_opt: list
    Y_opt: list
    primal_value: float
    dual_value: float
    gap: float
    primal_infeas: float
    dual_infeas: float
    iterations: int


def _require_finite(*arrays):
    """A non-finite entry raises what :func:`solve` reports as failure."""
    if not all(np.isfinite(m).all() for m in arrays):
        raise np.linalg.LinAlgError("non-finite direction or iterate")


def _nt_scaling(x, z):
    """``(R, v)`` of the Nesterov-Todd scaling of one block, ``X = R diag(v)
    R^dag`` and ``Z = R^-dag diag(v) R^-1``: ``R = L Q diag(v)^-1/2`` for ``X
    = L L^dag`` and ``L^dag Z L = Q diag(v)^2 Q^dag``.  ``L^dag Z L`` is
    congruent to ``Z``, so its eigenvalue test also stops a solve whose ``Z``
    lost definiteness in rounding (as on an infeasible problem)."""
    lx = np.linalg.cholesky(x)
    lam, q = np.linalg.eigh(lx.conj().T @ z @ lx)
    if lam[0] <= 0:
        raise np.linalg.LinAlgError("scaling eigenvalues <= 0")
    return lx @ q * lam ** -0.25, np.sqrt(lam)


def _max_steps(v, delta_hat) -> tuple:
    """Largest ``t`` with ``diag(v) + t delta_hat >= 0`` and with ``diag(v) -
    t (diag(v) + delta_hat) >= 0``, from one eigensolve: ``-1 / lambda_min``
    and ``1 / (1 + lambda_max)`` of ``diag(v)^-1/2 delta_hat diag(v)^-1/2``
    (``inf`` where not positive)."""
    s = v ** -0.5
    lam = np.linalg.eigvalsh(s[:, None] * delta_hat * s)
    return tuple(np.inf if m >= -1e-16 else -1.0 / m
                 for m in (lam[0], -1.0 - lam[-1]))


@dataclass(frozen=True)
class _SvecIndex:
    """Positions of ``hermitian_basis(r)``.

    Each ``F_j`` is ``c_j E(a_j, b_j) + conj(c_j) E(b_j, a_j)``.  ``a, b``
    list the diagonal, then the upper triangle in svec order: the positions
    of the diagonal and real-part elements, which the imaginary-part
    elements share.  ``coef[j] = c_j`` over all ``r*r`` elements: 1/2 on
    the diagonal (``F_pp = E/2 + E/2``), 1/sqrt(2) for real parts and
    i/sqrt(2) for imaginary parts.
    """

    r: int
    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray

    @cached_property
    def schur_weight(self):
        """``2 |c_i| |c_l|``, the factor of entry ``(i, l)`` of
        :func:`_embedded_schur`, formed on first use."""
        weight = np.abs(self.coef)
        return 2 * np.outer(weight, weight)


def _svec_index(r: int) -> _SvecIndex:
    p, q = np.triu_indices(r, 1)
    a = np.concatenate([np.arange(r), p])
    b = np.concatenate([np.arange(r), q])
    off = np.full(len(p), 1 / np.sqrt(2.0))
    return _SvecIndex(r, a, b, np.concatenate([np.full(r, 0.5), off, 1j * off]))


def _embedded_a_op(x, k, index):
    """``Re <1_k (x) F_j, X>`` for every ``j``, as ``Re <F_j, Tr_k X>``.

    Read from twice the Hermitian part of ``Tr_k X``, not from one triangle,
    so that an ``X`` Hermitian only up to rounding gives what the dense rows
    give.
    """
    r = index.r
    h = x if k == 1 else np.trace(x.reshape(k, r, k, r), axis1=0, axis2=2)
    upper = (h + h.conj().T)[index.a, index.b]
    return (np.concatenate([upper, upper[r:]]) * index.coef.conj()).real


def _embedded_a_adj(yv, k, index):
    """``1_k (x) sum_j y_j F_j``, as ``1_k (x) (U + U^H)`` with ``U`` holding
    ``sum_j y_j c_j`` at the positions ``(a, b)``."""
    r, nv = index.r, len(index.a)
    yc = yv * index.coef
    yc[r:nv] += yc[nv:]
    u = np.zeros((r, r), dtype=complex)
    u[index.a, index.b] = yc[:nv]
    u += u.conj().T
    if k == 1:
        return u
    out = np.zeros((k, r, k, r), dtype=complex)
    out[np.arange(k), :, np.arange(k)] = u
    return out.reshape(k * r, k * r)


def _embedded_schur(w, k, index):
    """Schur block ``Re <1_k (x) F_i, W (1_k (x) F_l) W>`` for all ``i, l``.

    This is ``Re(P^H K P)`` with ``K = sum_{y,y'} W_{yy'} (x) W_{y'y}^T``,
    formed in O(k^2 r^4), and ``P`` the columns ``vec(F_j)``, applied by
    gathers.  ``W`` is Hermitian, so ``K`` at the transposed positions
    ``((b, a), (d, c))`` is the conjugate of ``K`` at ``((a, b), (c, d))``;
    the four entries pairing ``F_i`` and ``F_l`` then reduce to twice the
    real part of two, both on or above the diagonal.
    """
    r = index.r
    wt = w.reshape(k, r, k, r)
    # kt[(a, c), (d, b)] = K[(a, b), (c, d)] = sum_{y,y'} W[ya, y'c] W[y'd, yb]
    kt = (wt.transpose(0, 2, 1, 3).reshape(k * k, r * r).T
          @ wt.transpose(2, 0, 1, 3).reshape(k * k, r * r)).reshape(r, r, r, r)
    # K[(a_i, b_i), (a_l, b_l)] and K[(a_i, b_i), (b_l, a_l)].
    a, b, ai, bi = index.a, index.b, index.a[:, None], index.b[:, None]
    same, swap = kt[ai, a, b, bi], kt[ai, b, a, bi]
    plus, minus = same + swap, same - swap
    nv = len(index.a)
    out = np.empty((r * r, r * r))
    out[:nv, :nv] = plus.real
    out[:nv, nv:] = -minus.imag[:, r:]
    out[nv:, :nv] = plus.imag[r:]
    out[nv:, nv:] = minus.real[r:, r:]
    out *= index.schur_weight
    return out


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Infeasible-start primal-dual interior-point solve.

    The Newton system is formed per variable block of the problem, and no
    other.  A block embedded as ``1_k (x) F_j`` over the basis of one
    constraint block (a declared slack block, or the ``W`` block of the norm
    SDP) contributes its Schur block, ``A`` and ``A^*`` by Kronecker
    identities and partial traces; any other block through its stored rows.

    Directions are taken in the Nesterov-Todd scaled space, ``X = R diag(v)
    R^dag`` and ``Z = R^-dag diag(v) R^-1``, where ``dXh = R^-1 dX R^-dag``
    and ``dZh = R^dag dZ R`` sum to ``R^-1 rc R^-dag`` (Todd, Toh and
    Tutuncu, SIAM J. Optim. 8, 1998): a direction forms ``dZh`` only, and
    its step lengths come from eigensolves of ``dXh`` and ``dZh``
    (:func:`_max_steps`), one for both of the predictor's (``dXh = -diag(v)
    - dZh``).  Short of ``optimal``, a solve ends ``numerical_failure`` on a
    failed factorization; ``stalled`` when, feasible to ``sqrt(feas_tol)``,
    its relative gap is above ``STALL_FACTOR`` times the largest of the last
    ``STALL_WINDOW``; ``diverged`` on a dual entry past ``DIVERGENCE_BOUND``
    on the unit-scaled data; or ``max_iterations``.

    Deterministic: identical problems and options produce an identical
    iterate sequence.
    """
    opt = options or SolveOptions()
    dims = problem.var_structure.blocks
    con = problem.con_structure
    nb = len(dims)
    m_con = con.dof
    nu = float(sum(dims))

    # embedded[bdx] is (svec slice, k, index) for an embedded block and None
    # for one with stored rows.
    embedded = _placements(con, problem.embedded)
    rows = problem.rows
    rows_conj = {bdx: r.reshape(m_con, -1).conj()
                 for bdx, r in enumerate(rows) if r is not None}

    # Work on data normalized to unit spectral scale; solutions and
    # objectives are rescaled on exit.  Tolerances are relative, so this is
    # invisible to callers but keeps badly scaled instances on the path.
    c_scale = max(spectral_norm(m) for m in problem.obj) or 1.0
    b_scale = max(spectral_norm(m) for m in problem.rhs) or 1.0
    c_blocks = [m.astype(complex) / c_scale for m in problem.obj]
    b = svec(problem.rhs) / b_scale
    c_norm = np.sqrt(sum(np.linalg.norm(cb) ** 2 for cb in c_blocks))

    tau = 2.0
    x = [tau * np.eye(d, dtype=complex) for d in dims]
    z = [tau * np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m_con)

    status = "max_iterations"
    it = 0
    pobj = dobj = 0.0
    rel_gap = pinf = dinf = np.inf
    gaps = []

    for it in range(1, opt.max_iter + 1):
        rp = b - _rows_apply(rows, embedded, x, m_con)
        aty = _rows_adj(rows, embedded, y)
        rd = [aty[bdx] - z[bdx] - c_blocks[bdx] for bdx in range(nb)]
        mu = sum(np.vdot(x[bdx], z[bdx]).real for bdx in range(nb)) / nu
        pobj = block_inner(c_blocks, x)
        dobj = float(b @ y)
        rel_gap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
        pinf = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        dinf = np.sqrt(sum(np.linalg.norm(m) ** 2 for m in rd)) / (1.0 + c_norm)
        if opt.verbose:
            print(f"iter {it - 1:3d}  pobj {pobj: .9e}  dobj {dobj: .9e}  "
                  f"gap {rel_gap:.3e}  pinf {pinf:.3e}  dinf {dinf:.3e}",
                  file=sys.stderr)
        if rel_gap <= opt.gap_tol and pinf <= opt.feas_tol and dinf <= opt.feas_tol:
            status = "optimal"
        elif np.abs(y).max() > DIVERGENCE_BOUND:
            status = "diverged"
        elif (len(gaps) >= STALL_WINDOW and max(pinf, dinf) <= opt.feas_tol ** 0.5
              and rel_gap > STALL_FACTOR * max(gaps[-STALL_WINDOW:])):
            status = "stalled"
        if status != "max_iterations":
            it -= 1
            break
        gaps.append(rel_gap)

        try:
            r_fac, v_diag = zip(*map(_nt_scaling, x, z))
            w_mat = [rf @ rf.conj().T for rf in r_fac]

            # Schur complement M[j,k] = <row_j, W row_k W>.
            schur = np.zeros((m_con, m_con))
            for bdx in range(nb):
                if embedded[bdx] is None:
                    t = np.matmul(np.matmul(w_mat[bdx][None], rows[bdx]),
                                  w_mat[bdx][None])
                    schur += (rows_conj[bdx] @ t.reshape(m_con, -1).T).real
                else:
                    sl, k, index = embedded[bdx]
                    schur[sl, sl] += _embedded_schur(w_mat[bdx], k, index)
            schur = (schur + schur.T) / 2
            schur.flat[::m_con + 1] += 1e-14 * np.trace(schur) / m_con

            # The Cholesky factor only tests positive definiteness (Z's test is
            # the scaling's); numpy has no triangular solve, so each direction
            # is one LU solve.
            np.linalg.cholesky(schur)
            wrdw = [w_mat[bdx] @ rd[bdx] @ w_mat[bdx] for bdx in range(nb)]

            def direction(rc):
                """``(dy, dZ, dZh)`` of the Newton direction for ``rc``."""
                rhs_vec = _rows_apply(rows, embedded, [
                    rc[bdx] - wrdw[bdx] for bdx in range(nb)], m_con) - rp
                dy = np.linalg.solve(schur, rhs_vec)
                aty_d = _rows_adj(rows, embedded, dy)
                dz = [aty_d[bdx] + rd[bdx] for bdx in range(nb)]
                dzh = [rf.conj().T @ m @ rf for rf, m in zip(r_fac, dz)]
                _require_finite(dy, *dzh)
                return dy, dz, dzh

            # Predictor (affine scaling): rc_hat = -diag(v), so dXh = -diag(v)
            # - dZh, and one eigensolve gives both steps.  Directions that
            # overflow (as on an infeasible problem) stop the solve first.
            _, _, dzh_a = direction([-m for m in x])
            ad, ap = (min(1.0, *s) for s in zip(*map(_max_steps, v_diag, dzh_a)))
            # Tr((X + ap dX)(Z + ad dZ)) with D = diag(v) and dXh = -D - dZh.
            mu_aff = sum(
                (1 - ap) * (v @ v + ad * (v @ h.diagonal().real))
                - ap * (v @ h.diagonal().real + ad * np.vdot(h, h).real)
                for v, h in zip(v_diag, dzh_a)) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # Corrector: rc_hat = (sigma mu 1 - D^2 - (dXh dZh + dZh dXh) / 2)
            # / ((v_i + v_j) / 2), with the predictor's dXh = -D - dZh.
            rc_hat = [np.diag(sigma * mu / v - v) + h + (h @ h) / (
                (v[:, None] + v) / 2) for v, h in zip(v_diag, dzh_a)]
            dy, dz, dzh = direction([rf @ m @ rf.conj().T
                                     for rf, m in zip(r_fac, rc_hat)])
            dxh = [m - h for m, h in zip(rc_hat, dzh)]
            ap, ad = (min([1.0] + [STEP_FRACTION * _max_steps(v, d)[0]
                                   for v, d in zip(v_diag, dh)])
                      for dh in (dxh, dzh))

            x = [xb + ap * (rf @ m @ rf.conj().T)
                 for xb, rf, m in zip(x, r_fac, dxh)]
            z = [zb + ad * m for zb, m in zip(z, dz)]
            x = [(m + m.conj().T) / 2 for m in x]
            z = [(m + m.conj().T) / 2 for m in z]
            y = y + ad * dy
            _require_finite(*x, y, *z)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

    pobj *= c_scale * b_scale
    dobj *= c_scale * b_scale
    return SdpSolution(
        status=status,
        X_opt=[b_scale * m for m in x],
        Y_opt=unsvec(c_scale * y, con),
        primal_value=pobj,
        dual_value=dobj,
        gap=abs(pobj - dobj),
        primal_infeas=float(pinf),
        dual_infeas=float(dinf),
        iterations=it,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    max_violation: float
    min_eigenvalue: float


def check_feasibility(problem: SdpProblem, point, side: str) -> FeasibilityReport:
    """Spectral violation of the linear constraint and most negative
    eigenvalue of a candidate primal or dual point.

    The primal side takes ``|Psi(X) - B|`` per constraint block and the
    eigenvalues of ``X``; the dual side ``A - Psi^*(Y)`` per variable block,
    with ``min_eigenvalue`` ``inf``, as ``Y`` has no sign constraint (a
    declared slack block's dual constraint is ``Y_c >= 0``).
    """
    if side == "primal":
        viol = max(spectral_norm(ib - rb)
                   for ib, rb in zip(problem.apply_psi(point), problem.rhs))
        return FeasibilityReport(viol, min(min_eigenvalue(m) for m in point))
    if side == "dual":
        adj = _rows_adj(problem.rows, _placements(
            problem.con_structure, problem.embedded), svec(point))
        viol = max(max_eigenvalue(ob - ab) for ob, ab in zip(problem.obj, adj))
        return FeasibilityReport(max(0.0, viol), np.inf)
    raise InvalidInputError(f"side must be 'primal' or 'dual', got {side!r}")

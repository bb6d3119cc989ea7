"""Semidefinite programs in the triple form

    maximize    <A, X>
    subject to  Psi(X) <= B,   X >= 0

over block-diagonal Hermitian variables, together with a primal-dual
interior-point solver (Nesterov-Todd scaling, Mehrotra predictor-corrector).

A problem may declare some constraint blocks as equalities,
``Psi(X)_c = B_c``.  Every other constraint block is handled internally by
a PSD slack block ``S_c`` with ``Psi(X)_c + S_c = B_c``.  The dual variable
``Y`` lives on the constraint-image structure and satisfies
``Psi^*(Y) >= A`` at optimality, with ``Y_c >= 0`` on the inequality blocks
only; an equality block's ``Y_c`` has no sign constraint.

The solve stops when the relative gap ``|p - d| / max(1, |p|, |d|)`` and
both relative infeasibilities are below their tolerances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .linalg import max_eigenvalue, min_eigenvalue, spectral_norm

GAP_TOL = 1e-8
FEAS_TOL = 1e-8
MAX_ITER = 200
STEP_FRACTION = 0.98


@dataclass(frozen=True)
class BlockStructure:
    """Ordered dimensions of the Hermitian blocks of a variable."""

    blocks: tuple

    def __post_init__(self):
        if not self.blocks or any(d < 1 for d in self.blocks):
            raise InvalidInputError("block dimensions must be >= 1")

    @property
    def dof(self) -> int:
        """Real degrees of freedom: sum of squared block dimensions."""
        return int(sum(d * d for d in self.blocks))

    def zeros(self):
        return [np.zeros((d, d), dtype=complex) for d in self.blocks]

    def random_hermitian(self, rng):
        out = []
        for d in self.blocks:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            out.append((g + g.conj().T) / 2)
        return out


def svec(blocks) -> np.ndarray:
    """Isometric real vectorization of a block Hermitian matrix.

    Per block: diagonal (real), then sqrt(2) * upper-triangle real parts,
    then sqrt(2) * upper-triangle imaginary parts, matching
    :func:`hermitian_basis` ordering.
    """
    parts = []
    for m in blocks:
        d = m.shape[0]
        iu = np.triu_indices(d, 1)
        parts.append(np.real(np.diag(m)))
        parts.append(np.sqrt(2.0) * np.real(m[iu]))
        parts.append(np.sqrt(2.0) * np.imag(m[iu]))
    return np.concatenate(parts) if parts else np.zeros(0)


def unsvec(vec: np.ndarray, structure: BlockStructure):
    blocks = []
    pos = 0
    for d in structure.blocks:
        seg = vec[pos:pos + d * d]
        pos += d * d
        m = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(m, seg[:d])
        k = d * (d - 1) // 2
        iu = np.triu_indices(d, 1)
        re = seg[d:d + k] / np.sqrt(2.0)
        im = seg[d + k:d + 2 * k] / np.sqrt(2.0)
        m[iu] = re + 1j * im
        m[(iu[1], iu[0])] = re - 1j * im
        blocks.append(m)
    return blocks


def _basis_entries(d: int):
    """``(p, q, F_pq, F_qp)``, the nonzero entries of each element of
    :func:`hermitian_basis` in svec order, without forming the matrices."""
    for p in range(d):
        yield p, p, 1.0, 1.0
    iu = np.triu_indices(d, 1)
    for p, q in zip(*iu):
        yield p, q, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
    for p, q in zip(*iu):
        yield p, q, 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)


def hermitian_basis(d: int):
    """Orthonormal Hermitian basis of dimension ``d*d`` in svec order."""
    mats = []
    for p, q, fpq, fqp in _basis_entries(d):
        e = np.zeros((d, d), dtype=complex)
        e[p, q] = fpq
        e[q, p] = fqp
        mats.append(e)
    return mats


def block_inner(a, b) -> float:
    """Real Hilbert-Schmidt inner product of block Hermitian matrices."""
    return float(sum(np.vdot(x, y).real for x, y in zip(a, b)))


def _placements(con_structure, embedded, schur=True):
    """``(svec slice, k, _SvecIndex)`` of each variable block declared as
    ``(c, k)``, that is with rows ``1_k (x) F_j`` for the basis ``F_j`` of
    constraint block ``c``; ``None`` for a block with stored rows.  Without
    ``schur`` the indices leave out what only :func:`_embedded_schur`
    reads."""
    offsets = np.cumsum([0] + [d * d for d in con_structure.blocks])
    return [None if e is None else
            (slice(offsets[e[0]], offsets[e[0] + 1]), e[1],
             _svec_index(con_structure.blocks[e[0]], schur))
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
    return [np.einsum("j,jab->ab", yv, r) if place is None
            else _embedded_a_adj(yv[place[0]], *place[1:])
            for r, place in zip(rows, placements)]


@dataclass(frozen=True)
class SdpProblem:
    """Triple-form problem given by its constraint rows.

    Row ``j`` over all variable blocks is ``Psi^*(F_j)`` for the ``j``-th
    orthonormal Hermitian basis element ``F_j`` of the constraint image, so
    ``Psi(X) = sum_j <row_j, X> F_j``.  ``embedded[b]`` is ``(c, k)`` when
    block ``b`` is declared to have rows ``1_k (x) F_j`` for the basis of
    constraint block ``c`` and zero rows elsewhere; such a block stores no
    rows (``rows[b]`` is ``None``).  Every other block has ``embedded[b]``
    ``None`` and stores ``rows[b]`` of shape ``(con_dof, d_b, d_b)``.
    ``equality`` lists the constraint blocks held with ``=``; the others are
    held with ``<=``.
    """

    var_structure: BlockStructure
    con_structure: BlockStructure
    rows: tuple = field(repr=False)
    obj: tuple = field(repr=False)
    rhs: tuple = field(repr=False)
    embedded: tuple
    equality: tuple = ()

    @staticmethod
    def from_maps(var_structure, con_structure, psi, psi_adj, obj, rhs,
                  check_tol: float = 1e-11, embedded: dict | None = None,
                  equality=()):
        """Build a problem from callables for ``Psi`` and ``Psi^*``.

        ``embedded`` maps a variable block to ``(c, k)`` when ``Psi^*``
        enters it as ``1_k (x) Y_c``; no rows are stored for it, and those of
        the other blocks are probed from ``psi_adj``, one basis element at a
        time.  ``equality`` names the constraint blocks held with ``=``
        rather than ``<=``: :func:`solve` gives them no slack block and their
        duals no sign constraint.  Declare a block so only when some optimum
        makes it tight, as then the optimum is unchanged.  Both callables are
        validated on random inputs: Hermiticity preservation of ``Psi``, and
        adjoint consistency against the rows and the declared blocks.
        """
        obj = tuple(np.asarray(m, dtype=complex) for m in obj)
        rhs = tuple(np.asarray(m, dtype=complex) for m in rhs)
        if len(obj) != len(var_structure.blocks):
            raise InvalidInputError("objective does not match var structure")
        if len(rhs) != len(con_structure.blocks):
            raise InvalidInputError("rhs does not match con structure")
        for m, d in zip(obj, var_structure.blocks):
            if m.shape != (d, d):
                raise InvalidInputError("objective block shape mismatch")
        for m, d in zip(rhs, con_structure.blocks):
            if m.shape != (d, d):
                raise InvalidInputError("rhs block shape mismatch")
        embedded = tuple(
            (embedded or {}).get(b) for b in range(len(var_structure.blocks))
        )
        for e, d in zip(embedded, var_structure.blocks):
            if e is not None and not (
                    0 <= e[0] < len(con_structure.blocks)
                    and d == e[1] * con_structure.blocks[e[0]]):
                raise InvalidInputError("embedded block shape mismatch")
        equality = tuple(equality)
        if len(set(equality)) != len(equality) or not all(
                isinstance(c, (int, np.integer))
                and 0 <= c < len(con_structure.blocks) for c in equality):
            raise InvalidInputError(
                "equality must name distinct constraint blocks")

        m_con = con_structure.dof
        rows = [
            None if e is not None else np.zeros((m_con, d, d), dtype=complex)
            for d, e in zip(var_structure.blocks, embedded)
        ]
        j = 0
        for ci, d in enumerate(con_structure.blocks):
            for p, q, fpq, fqp in _basis_entries(d):
                fb = con_structure.zeros()
                fb[ci][p, q] = fpq
                fb[ci][q, p] = fqp
                g = psi_adj(fb)
                for b, gb in enumerate(g):
                    if rows[b] is not None:
                        rows[b][j] = (gb + np.conj(gb).T) / 2
                j += 1

        placements = _placements(con_structure, embedded, schur=False)
        rng = np.random.default_rng(20260823)
        for _ in range(3):
            h = var_structure.random_hermitian(rng)
            out = psi(h)
            scale = 1.0 + max(spectral_norm(x) for x in h)
            for o in out:
                if spectral_norm(o - np.conj(o).T) > check_tol * scale:
                    raise InvalidInputError(
                        "psi is not Hermiticity-preserving within tolerance"
                    )
            y = con_structure.random_hermitian(rng)
            lhs = block_inner(y, out)
            rhs_ip = float(svec(y) @ _rows_apply(rows, placements, h, m_con))
            scale2 = (1.0 + abs(lhs) + abs(rhs_ip)) * (
                1.0 + max(spectral_norm(x) for x in y)
            )
            if abs(lhs - rhs_ip) > check_tol * scale2:
                raise InvalidInputError(
                    "psi and psi_adj are not adjoint within tolerance"
                )
        return SdpProblem(var_structure, con_structure, tuple(rows), obj,
                          rhs, embedded, tuple(int(c) for c in equality))

    def apply_psi(self, x):
        """Evaluate ``Psi(X)`` through the stored rows and declared blocks."""
        con = self.con_structure
        placements = _placements(con, self.embedded, schur=False)
        return unsvec(_rows_apply(self.rows, placements, x, con.dof), con)


@dataclass
class SolveOptions:
    """Stopping rule and logging (to standard error) of :func:`solve`.

    A solve ends ``optimal`` when the relative gap
    ``|p - d| / max(1, |p|, |d|)`` is at most ``gap_tol`` and the primal
    and dual infeasibilities, relative to ``1 + |B|`` and ``1 + |A|``, are
    at most ``feas_tol``, all measured on the data scaled to
    ``|A| = |B| = 1``.  The gap test is relative for large objectives and
    absolute near a zero optimum, where a relative test could never pass.
    """

    gap_tol: float = GAP_TOL
    feas_tol: float = FEAS_TOL
    max_iter: int = MAX_ITER
    verbose: bool = False


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


def _max_step(chol_inv, delta) -> float:
    """Largest t with X + t * delta >= 0, given inv(L) for X = L L^dag."""
    w = chol_inv @ delta @ chol_inv.conj().T
    lam_min = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
    if lam_min >= -1e-16:
        return np.inf
    return -1.0 / lam_min


class _SvecIndex(NamedTuple):
    """Positions of ``hermitian_basis(r)``.

    Each ``F_j`` is ``c_j E(a_j, b_j) + conj(c_j) E(b_j, a_j)``.  ``a, b``
    list the diagonal, then the upper triangle in svec order: the positions
    of the diagonal and real-part elements, which the imaginary-part
    elements share.  ``coef[j] = c_j`` over all ``r*r`` elements: 1/2 on
    the diagonal (``F_pp = E/2 + E/2``), 1/sqrt(2) for real parts and
    i/sqrt(2) for imaginary parts.  ``gather`` and ``scale`` serve
    :func:`_embedded_schur`; they take ``O(r^4)`` memory, so they are
    ``None`` when built without ``schur``.
    """

    r: int
    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray
    gather: np.ndarray
    scale: np.ndarray


def _svec_index(r: int, schur: bool = True) -> _SvecIndex:
    p, q = np.triu_indices(r, 1)
    a = np.concatenate([np.arange(r), p])
    b = np.concatenate([np.arange(r), q])
    off = np.full(len(p), 1 / np.sqrt(2.0))
    coef = np.concatenate([np.full(r, 0.5), off, 1j * off])
    if not schur:
        return _SvecIndex(r, a, b, coef, None, None)
    # Flat positions in kt (see _embedded_schur) of K[(a_i, b_i), (a_l, b_l)]
    # and K[(a_i, b_i), (b_l, a_l)].
    row = (a * r ** 3 + b)[:, None]
    gather = np.array([row + (a * r + b) * r, row + (b * r + a) * r])
    weight = np.abs(coef)
    return _SvecIndex(r, a, b, coef, gather, 2 * np.outer(weight, weight))


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
    return np.einsum("yz,ab->yazb", np.eye(k), u).reshape(k * r, k * r)


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
          @ wt.transpose(2, 0, 1, 3).reshape(k * k, r * r))
    same, swap = kt.reshape(-1)[index.gather]
    plus, minus = same + swap, same - swap
    nv = len(index.a)
    out = np.empty((r * r, r * r))
    out[:nv, :nv] = plus.real
    out[:nv, nv:] = -minus.imag[:, r:]
    out[nv:, :nv] = plus.imag[r:]
    out[nv:, nv:] = minus.real[r:, r:]
    out *= index.scale
    return out


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Infeasible-start primal-dual interior-point solve.

    The Newton system is formed per variable block.  A block embedded as
    ``1_k (x) F_j`` over the basis of one constraint block (every slack
    block, and each block the problem declares so, like the ``W`` block of
    both norm SDPs) contributes its Schur block, ``A`` and ``A^*`` by
    Kronecker identities and partial traces; any other block through its
    stored rows.

    Only the inequality blocks of the constraint get a slack block; the
    equality blocks (``problem.equality``) are met by ``Psi(X)`` itself, so
    their duals carry no sign constraint.

    Deterministic: identical problems and options produce an identical
    iterate sequence.
    """
    opt = options or SolveOptions()
    var = problem.var_structure
    con = problem.con_structure
    nb_var = len(var.blocks)
    slack = [c for c in range(len(con.blocks)) if c not in problem.equality]
    dims = list(var.blocks) + [con.blocks[c] for c in slack]
    nb = len(dims)
    m_con = con.dof
    nu = float(sum(dims))

    # Standard form: variable blocks = (X blocks, slack blocks of the
    # inequality constraint blocks), <row_hat_j, Xtilde> = b_j, objective
    # C = (obj, 0).  embedded[bdx] is (svec slice, k, index) for an embedded
    # block and None for one with stored rows; a slack block is the basis of
    # its constraint block, k = 1.
    embedded = _placements(con, problem.embedded + tuple(
        (c, 1) for c in slack))
    rows = list(problem.rows) + [None] * len(slack)
    rows_conj = {bdx: r.reshape(m_con, -1).conj()
                 for bdx, r in enumerate(rows) if r is not None}

    # Work on data normalized to unit spectral scale; solutions and
    # objectives are rescaled on exit.  Tolerances are relative, so this is
    # invisible to callers but keeps badly scaled instances on the path.
    c_scale = max(spectral_norm(m) for m in problem.obj) or 1.0
    b_scale = max(spectral_norm(m) for m in problem.rhs) or 1.0
    c_blocks = [m.astype(complex) / c_scale for m in problem.obj] + [
        np.zeros((d, d), dtype=complex) for d in dims[nb_var:]
    ]
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
            it -= 1
            break

        try:
            # Nesterov-Todd scaling per block; inv(L) of X = L L^dag also bounds
            # the primal step.
            r_fac, r_inv, lx_inv, v_diag, w_mat = [], [], [], [], []
            for bdx in range(nb):
                lx = np.linalg.cholesky(x[bdx])
                li = np.linalg.inv(lx)
                t = lx.conj().T @ z[bdx] @ lx
                lam, q = np.linalg.eigh((t + t.conj().T) / 2)
                if lam[0] <= 0:
                    raise np.linalg.LinAlgError("scaling eigenvalues <= 0")
                rf = lx @ q * lam ** -0.25
                ri = (q * lam ** 0.25).conj().T @ li
                r_fac.append(rf)
                r_inv.append(ri)
                lx_inv.append(li)
                v_diag.append(np.sqrt(lam))
                w_mat.append(rf @ rf.conj().T)

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
            schur += 1e-14 * np.trace(schur) / m_con * np.eye(m_con)

            # The Cholesky factor only tests positive definiteness; numpy has no
            # triangular solve, so each direction is one LU solve.
            np.linalg.cholesky(schur)

            def direction(rc):
                """Solve the Newton system for a given complementarity target."""
                rhs_vec = _rows_apply(rows, embedded, [
                    rc[bdx] - w_mat[bdx] @ rd[bdx] @ w_mat[bdx]
                    for bdx in range(nb)], m_con) - rp
                dy = np.linalg.solve(schur, rhs_vec)
                aty_d = _rows_adj(rows, embedded, dy)
                dz = [aty_d[bdx] + rd[bdx] for bdx in range(nb)]
                dx = [rc[bdx] - w_mat[bdx] @ dz[bdx] @ w_mat[bdx] for bdx in range(nb)]
                dx = [(m + m.conj().T) / 2 for m in dx]
                dz = [(m + m.conj().T) / 2 for m in dz]
                _require_finite(*dx, dy, *dz)
                return dx, dy, dz

            # Predictor (affine scaling).  Directions that overflow (as on an
            # infeasible problem) stop the solve before the step eigensolves.
            rc_aff = [-x[bdx] for bdx in range(nb)]
            dx_a, dy_a, dz_a = direction(rc_aff)
            lz_inv = [np.linalg.inv(np.linalg.cholesky(m)) for m in z]

            ap = min([1.0] + [_max_step(lx_inv[bdx], dx_a[bdx]) for bdx in range(nb)])
            ad = min([1.0] + [_max_step(lz_inv[bdx], dz_a[bdx]) for bdx in range(nb)])
            mu_aff = sum(
                np.vdot(x[bdx] + ap * dx_a[bdx], z[bdx] + ad * dz_a[bdx]).real
                for bdx in range(nb)
            ) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # Corrector in the scaled space where Xhat = Zhat = diag(v).
            rc = []
            for bdx in range(nb):
                dxh = r_inv[bdx] @ dx_a[bdx] @ r_inv[bdx].conj().T
                dzh = r_fac[bdx].conj().T @ dz_a[bdx] @ r_fac[bdx]
                hcorr = (dxh @ dzh + dzh @ dxh) / 2
                v = v_diag[bdx]
                rc_hat = sigma * mu * np.eye(len(v)) - np.diag(v * v) - hcorr
                rc_hat = (rc_hat + rc_hat.conj().T) / 2
                denom = (v[:, None] + v[None, :]) / 2
                rc_hat = rc_hat / denom
                rc.append(r_fac[bdx] @ rc_hat @ r_fac[bdx].conj().T)
            dx, dy, dz = direction(rc)

            ap = min([1.0] + [
                STEP_FRACTION * _max_step(lx_inv[bdx], dx[bdx]) for bdx in range(nb)
            ])
            ad = min([1.0] + [
                STEP_FRACTION * _max_step(lz_inv[bdx], dz[bdx]) for bdx in range(nb)
            ])

            x = [(x[bdx] + ap * dx[bdx]) for bdx in range(nb)]
            z = [(z[bdx] + ad * dz[bdx]) for bdx in range(nb)]
            x = [(m + m.conj().T) / 2 for m in x]
            z = [(m + m.conj().T) / 2 for m in z]
            y = y + ad * dy
            _require_finite(*x, y, *z)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

    x_var = [b_scale * m for m in x[:nb_var]]
    y_blocks = unsvec(c_scale * y, con)
    pobj *= c_scale * b_scale
    dobj *= c_scale * b_scale
    return SdpSolution(
        status=status,
        X_opt=x_var,
        Y_opt=y_blocks,
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

    On the primal side an equality block counts its deviation from ``B_c``
    in both directions.  On the dual side the eigenvalue is taken over the
    inequality blocks only (``inf`` when there are none), since an equality
    block's dual has no sign constraint.
    """
    if side == "primal":
        img = problem.apply_psi(point)
        viol = max(
            spectral_norm(ib - rb) if c in problem.equality
            else max_eigenvalue(ib - rb)
            for c, (ib, rb) in enumerate(zip(img, problem.rhs))
        )
        min_eig = min(min_eigenvalue(m) for m in point)
        return FeasibilityReport(max(0.0, viol), min_eig)
    if side == "dual":
        adj = _rows_adj(problem.rows, _placements(
            problem.con_structure, problem.embedded, schur=False), svec(point))
        viol = max(
            max_eigenvalue(ob - ab) for ob, ab in zip(problem.obj, adj)
        )
        min_eig = min((min_eigenvalue(m) for c, m in enumerate(point)
                       if c not in problem.equality), default=np.inf)
        return FeasibilityReport(max(0.0, viol), min_eig)
    raise InvalidInputError(f"side must be 'primal' or 'dual', got {side!r}")

"""Super-operator representations and conversions.

A :class:`SuperOp` maps ``L(X) -> L(Y)`` with ``dim X = n`` (input) and
``dim Y = m`` (output).  Three internal representations are supported: a
Choi matrix on ``Y (x) X``, a generalized Kraus family ``X -> sum_l L_l X
R_l^dag``, and a Stinespring pair ``X -> Tr_Z(A X B^dag)`` with environment
``Z``.  Map algebra reads the Choi matrix: the adjoint, the tensor product
and a difference of channels are index shuffles or sums of Choi matrices,
held as ``Choi``, with no decomposition and so no rank cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import linalg
from .errors import InvalidInputError
from .linalg import as_matrix, kron, partial_trace

RANK_TOL = 1e-9
EPS = np.finfo(float).eps
TP_TOL = 1e-8


@dataclass(frozen=True)
class Choi:
    matrix: np.ndarray


@dataclass(frozen=True)
class Kraus:
    """Generalized Kraus family; ``left == right`` for CP maps."""

    left: tuple
    right: tuple


@dataclass(frozen=True)
class StinespringPair:
    """Operators ``a, b`` of shape ``(dim_out * dim_env, dim_in)`` with the
    environment as the fast tensor factor of the output."""

    a: np.ndarray
    b: np.ndarray
    dim_env: int


Rep = Union[Choi, Kraus, StinespringPair]


@dataclass(frozen=True)
class ChannelReport:
    is_cp: bool
    is_tp: bool
    min_choi_eigenvalue: float
    tp_residual: float


@dataclass(frozen=True)
class SuperOp:
    dim_in: int
    dim_out: int
    rep: Rep = field(repr=False)

    @staticmethod
    def from_choi(j, dim_in: int, dim_out: int) -> "SuperOp":
        jm = as_matrix(j)
        if jm.shape != (dim_out * dim_in, dim_out * dim_in):
            raise InvalidInputError(
                f"Choi matrix shape {jm.shape} does not match dims "
                f"({dim_out}*{dim_in})"
            )
        return SuperOp(dim_in, dim_out, Choi(jm))

    @staticmethod
    def from_kraus(left, right=None) -> "SuperOp":
        lops = tuple(as_matrix(k) for k in left)
        rops = lops if right is None else tuple(as_matrix(k) for k in right)
        if not lops:
            raise InvalidInputError("Kraus family must be non-empty")
        if len(lops) != len(rops):
            raise InvalidInputError("left/right Kraus families differ in length")
        m, n = lops[0].shape
        for k in (*lops, *rops):
            if k.shape != (m, n):
                raise InvalidInputError("inconsistent Kraus operator shapes")
        return SuperOp(n, m, Kraus(lops, rops))

    @staticmethod
    def from_stinespring(a, b, dim_env: int) -> "SuperOp":
        am, bm = as_matrix(a), as_matrix(b)
        if am.shape != bm.shape:
            raise InvalidInputError("Stinespring pair shapes differ")
        if dim_env < 1 or am.shape[0] % dim_env != 0:
            raise InvalidInputError(
                f"rows {am.shape[0]} not divisible by dim_env {dim_env}"
            )
        return SuperOp(
            am.shape[1], am.shape[0] // dim_env, StinespringPair(am, bm, dim_env)
        )

    @staticmethod
    def difference(phi0: "SuperOp", phi1: "SuperOp") -> "SuperOp":
        if (phi0.dim_in, phi0.dim_out) != (phi1.dim_in, phi1.dim_out):
            raise InvalidInputError("channel difference requires matching dims")
        n, m = phi0.dim_in, phi0.dim_out
        j0, j1 = to_choi(phi0), to_choi(phi1)
        for name, j in (("phi0", j0), ("phi1", j1)):
            rep = _channel_report(j, n, m)
            if not (rep.is_cp and rep.is_tp):
                raise InvalidInputError(
                    f"{name} is not a quantum channel "
                    f"(cp={rep.is_cp}, tp={rep.is_tp})"
                )
        return SuperOp(n, m, Choi(j0 - j1))

    @staticmethod
    def identity(dim: int) -> "SuperOp":
        return SuperOp.from_kraus([np.eye(dim)])


def apply(phi: SuperOp, x) -> np.ndarray:
    """Evaluate ``phi`` on an ``n x n`` operator."""
    xm = as_matrix(x)
    n, m = phi.dim_in, phi.dim_out
    if xm.shape != (n, n):
        raise InvalidInputError(f"operand shape {xm.shape}, expected ({n},{n})")
    rep = phi.rep
    if isinstance(rep, Kraus):
        out = np.zeros((m, m), dtype=complex)
        for l, r in zip(rep.left, rep.right):
            out += l @ xm @ r.conj().T
        return out
    if isinstance(rep, Choi):
        prod = rep.matrix @ kron(np.eye(m), xm.T)
        return partial_trace(prod, (m, n), side="second")
    if isinstance(rep, StinespringPair):
        big = rep.a @ xm @ rep.b.conj().T
        return partial_trace(big, (m, rep.dim_env), side="second")
    raise InvalidInputError(f"unknown representation {type(rep).__name__}")


def to_choi(phi: SuperOp) -> np.ndarray:
    """Choi matrix ``sum_ij phi(E_ij) (x) E_ij`` on ``Y (x) X``."""
    n, m = phi.dim_in, phi.dim_out
    rep = phi.rep
    if isinstance(rep, Choi):
        return rep.matrix
    if isinstance(rep, Kraus):
        j = np.zeros((m * n, m * n), dtype=complex)
        for l, r in zip(rep.left, rep.right):
            # (K (x) 1) omega, omega = sum_j e_j (x) e_j, is K read row-wise.
            j += np.outer(l.reshape(-1), r.reshape(-1).conj())
        return j
    return _choi_factor(rep.a, m, rep.dim_env) @ \
        _choi_factor(rep.b, m, rep.dim_env).conj().T


def _choi_factor(x, m, r):
    """``X'[(y, x), z] = X[(y, z), x]``, the inverse of
    :func:`_stinespring_of_choi`'s reshape: a Stinespring pair ``(A, B)`` has
    the Choi matrix ``A' B'^dag``."""
    n = x.shape[1]
    return x.reshape(m, r, n).transpose(0, 2, 1).reshape(m * n, r)


def to_kraus(phi: SuperOp) -> SuperOp:
    """Minimal generalized Kraus representation derived from the Choi matrix.

    Maps whose Choi matrix is Hermitian and PSD to rounding level, ``mn eps
    |J|_2``, get ``left == right`` from the eigendecomposition; all others
    read theirs off the environment blocks of :func:`to_stinespring`'s pair.
    Both cut the spectrum only at that rounding level, so no term is lost.
    """
    n, m = phi.dim_in, phi.dim_out
    j = to_choi(phi)
    tol = m * n * EPS * linalg.spectral_norm(j)
    if linalg.spectral_norm(j - j.conj().T) <= tol:
        vals, vecs = linalg.herm_eig(j)
        if vals[-1] >= -tol:
            keep = vals > tol
            ops = tuple((np.sqrt(v) * x).reshape(m, n) for v, x in
                        zip(vals[keep], vecs.T[keep])) or (np.zeros((m, n)),)
            return SuperOp(n, m, Kraus(ops, ops))
    pair = _stinespring_of_choi(j, n, m, m * n * EPS)[0]
    left, right = (tuple(np.ascontiguousarray(
        x.reshape(m, pair.dim_env, n).transpose(1, 0, 2)))
        for x in (pair.a, pair.b))
    return SuperOp(n, m, Kraus(left, right))


def to_stinespring(phi: SuperOp) -> StinespringPair:
    """Minimal-environment Stinespring pair from the SVD of the Choi matrix.

    The environment dimension is the numerical rank of ``J(phi)`` at
    threshold ``mn eps sigma_max``, rounding level (clamped to 1 for the
    zero map).
    """
    n, m = phi.dim_in, phi.dim_out
    return _stinespring_of_choi(to_choi(phi), n, m, m * n * EPS)[0]


def _stinespring_of_choi(j, n, m, tol=RANK_TOL) -> tuple:
    """The Stinespring pair of the SVD of the Choi matrix ``j``, cut at
    ``tol sigma_max``, and the largest singular value it drops: the
    spectral norm of ``j`` minus the pair's Choi matrix."""
    u, s, vh = np.linalg.svd(j)
    cut = tol * (s[0] if s.size else 0.0)
    r = max(1, int(np.sum(s > cut)))
    scaled_u = u[:, :r] * np.sqrt(s[:r])
    scaled_v = vh[:r, :].conj().T * np.sqrt(s[:r])
    if not np.any(s > cut):
        scaled_u = np.zeros((m * n, r))
        scaled_v = np.zeros((m * n, r))
    a = scaled_u.reshape(m, n, r).transpose(0, 2, 1).reshape(m * r, n)
    b = scaled_v.reshape(m, n, r).transpose(0, 2, 1).reshape(m * r, n)
    return StinespringPair(a, b, r), float(s[r]) if r < s.size else 0.0


def adjoint(phi: SuperOp) -> SuperOp:
    """Adjoint map ``phi^*: L(Y) -> L(X)`` with ``<Y, phi(X)> = <phi^*(Y), X>``:
    ``J(phi^*)[(x, y), (x', y')] = conj(J(phi)[(y, x), (y', x')])``."""
    n, m = phi.dim_in, phi.dim_out
    j = to_choi(phi).reshape(m, n, m, n).transpose(1, 0, 3, 2)
    return SuperOp(m, n, Choi(j.reshape(m * n, m * n).conj()))


def tensor(phi: SuperOp, psi: SuperOp) -> SuperOp:
    """Tensor product map under the global factor ordering (phi slow): the
    Kronecker product of the Choi matrices, its factors permuted from
    ``(Y1 X1) (x) (Y2 X2)`` to ``(Y1 Y2) (x) (X1 X2)``."""
    (n1, m1), (n2, m2) = (phi.dim_in, phi.dim_out), (psi.dim_in, psi.dim_out)
    d = m1 * m2 * n1 * n2
    j = np.kron(to_choi(phi), to_choi(psi)).reshape(
        m1, n1, m2, n2, m1, n1, m2, n2).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return SuperOp(n1 * n2, m1 * m2, Choi(j.reshape(d, d)))


def is_channel(phi: SuperOp) -> ChannelReport:
    """Complete positivity (Choi PSD) and trace preservation
    (``Tr_Y J = 1_X``) report."""
    return _channel_report(to_choi(phi), phi.dim_in, phi.dim_out)


def _channel_report(j, n, m) -> ChannelReport:
    herm_dev = linalg.spectral_norm(j - j.conj().T)
    scale = max(1.0, linalg.spectral_norm(j))
    if herm_dev > linalg.HERMITIAN_TOL * scale:
        min_eig = -herm_dev
        is_cp = False
    else:
        min_eig = linalg.min_eigenvalue(j)
        is_cp = min_eig >= -linalg.PSD_TOL * scale
    tp_res = linalg.spectral_norm(
        partial_trace(j, (m, n), side="first") - np.eye(n)
    )
    return ChannelReport(is_cp, tp_res <= TP_TOL, min_eig, tp_res)


def induced_trace_norm_lower_bound(
    phi: SuperOp,
    restarts: int = 20,
    seed: int = 0,
    max_iters: int = 500,
) -> float:
    """Certified lower bound on the completely bounded trace norm.

    Maximizes ``|(phi (x) id)(u v^dag)|_1`` over unit vectors by alternating
    between the polar-optimal test unitary and the top singular pair of the
    induced linear functional.  Every iterate is feasible, so the returned
    value never exceeds the true norm.
    """
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    n, m = phi.dim_in, phi.dim_out
    kr = phi.rep if isinstance(phi.rep, Kraus) else to_kraus(phi).rep
    left = [np.kron(k, np.eye(n)) for k in kr.left]
    right = [np.kron(k, np.eye(n)) for k in kr.right]
    if all(not l.any() for l in left) or all(not r.any() for r in right):
        return 0.0

    def big_apply(x):
        out = np.zeros((m * n, m * n), dtype=complex)
        for l, r in zip(left, right):
            out += l @ x @ r.conj().T
        return out

    best = 0.0
    for restart in range(restarts):
        rng = np.random.default_rng(seed + restart)
        u = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        prev = -np.inf
        for _ in range(max_iters):
            mat = big_apply(np.outer(u, v.conj()))
            us, sing, vhs = np.linalg.svd(mat)
            val = float(sing.sum())
            if val <= prev + 1e-13:
                prev = max(prev, val)
                break
            prev = val
            u_pol = us @ vhs
            # K = (phi^* (x) id)(U); maximize |v^dag K^dag u| over unit u, v.
            k = np.zeros((n * n, n * n), dtype=complex)
            for l, r in zip(left, right):
                k += l.conj().T @ u_pol @ r
            p, _, qh = np.linalg.svd(k)
            u = p[:, 0]
            v = qh[0, :].conj()
        best = max(best, prev)
    return best

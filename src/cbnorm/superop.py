"""Super-operator representations and conversions.

A :class:`SuperOp` maps ``L(X) -> L(Y)`` with ``dim X = n`` (input) and
``dim Y = m`` (output).  Four internal representations are supported: a Choi
matrix on ``Y (x) X``, a generalized Kraus family ``X -> sum_l L_l X R_l^dag``,
a Stinespring pair ``X -> Tr_Z(A X B^dag)`` with environment ``Z``, and a
difference of two quantum channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import linalg
from .errors import InvalidInputError
from .linalg import as_matrix, kron, partial_trace

RANK_TOL = 1e-9
TP_TOL = 1e-8
RECON_TOL = 1e-10


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


@dataclass(frozen=True)
class ChannelDifference:
    phi0: "SuperOp"
    phi1: "SuperOp"


Rep = Union[Choi, Kraus, StinespringPair, ChannelDifference]


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
        for name, phi in (("phi0", phi0), ("phi1", phi1)):
            rep = is_channel(phi)
            if not (rep.is_cp and rep.is_tp):
                raise InvalidInputError(
                    f"{name} is not a quantum channel "
                    f"(cp={rep.is_cp}, tp={rep.is_tp})"
                )
        return SuperOp(phi0.dim_in, phi0.dim_out, ChannelDifference(phi0, phi1))

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
    if isinstance(rep, ChannelDifference):
        return apply(rep.phi0, xm) - apply(rep.phi1, xm)
    raise InvalidInputError(f"unknown representation {type(rep).__name__}")


def to_choi(phi: SuperOp) -> np.ndarray:
    """Choi matrix ``sum_ij phi(E_ij) (x) E_ij`` on ``Y (x) X``."""
    n, m = phi.dim_in, phi.dim_out
    rep = phi.rep
    if isinstance(rep, Choi):
        return rep.matrix
    if isinstance(rep, ChannelDifference):
        return to_choi(rep.phi0) - to_choi(rep.phi1)
    if isinstance(rep, Kraus):
        j = np.zeros((m * n, m * n), dtype=complex)
        for l, r in zip(rep.left, rep.right):
            # (K (x) 1) omega, omega = sum_j e_j (x) e_j, is K read row-wise.
            j += np.outer(l.reshape(-1), r.reshape(-1).conj())
        return j
    # Stinespring: J = A' B'^dag with A'[(y, x), z] = A[(y, z), x], the
    # inverse of _stinespring_of_choi's reshape.
    a, b = (x.reshape(m, rep.dim_env, n).transpose(0, 2, 1).reshape(m * n, -1)
            for x in (rep.a, rep.b))
    return a @ b.conj().T


def to_kraus(phi: SuperOp) -> SuperOp:
    """Minimal generalized Kraus representation derived from the Choi matrix.

    CP maps (Choi PSD within tolerance) get ``left == right`` from the
    eigendecomposition; general maps read theirs off the environment blocks
    of :func:`to_stinespring`'s pair.
    """
    n, m = phi.dim_in, phi.dim_out
    j = to_choi(phi)
    herm_dev = linalg.spectral_norm(j - j.conj().T)
    scale = max(1.0, linalg.spectral_norm(j))
    if herm_dev <= linalg.HERMITIAN_TOL * scale:
        vals, vecs = linalg.herm_eig(j)
        if vals.size and vals[-1] >= -linalg.PSD_TOL * scale:
            cut = RANK_TOL * max(abs(vals[0]), 1e-300) if vals.size else 0.0
            keep = [i for i, v in enumerate(vals) if v > cut]
            if not keep:
                zero = np.zeros((m, n))
                return SuperOp(n, m, Kraus((zero,), (zero,)))
            ops = tuple(
                (np.sqrt(vals[i]) * vecs[:, i]).reshape(m, n) for i in keep
            )
            return SuperOp(n, m, Kraus(ops, ops))
    pair = _stinespring_of_choi(j, n, m)
    left, right = (tuple(np.ascontiguousarray(
        x.reshape(m, pair.dim_env, n).transpose(1, 0, 2)))
        for x in (pair.a, pair.b))
    return SuperOp(n, m, Kraus(left, right))


def to_stinespring(phi: SuperOp) -> StinespringPair:
    """Minimal-environment Stinespring pair from the SVD of the Choi matrix.

    The environment dimension is the numerical rank of ``J(phi)`` at
    threshold ``RANK_TOL * sigma_max`` (clamped to 1 for the zero map).
    """
    return _stinespring_of_choi(to_choi(phi), phi.dim_in, phi.dim_out)


def _stinespring_of_choi(j, n, m) -> StinespringPair:
    """:func:`to_stinespring` of the map with Choi matrix ``j``."""
    u, s, vh = np.linalg.svd(j)
    cut = RANK_TOL * (s[0] if s.size else 0.0)
    r = max(1, int(np.sum(s > cut)))
    scaled_u = u[:, :r] * np.sqrt(s[:r])
    scaled_v = vh[:r, :].conj().T * np.sqrt(s[:r])
    if not np.any(s > cut):
        scaled_u = np.zeros((m * n, r))
        scaled_v = np.zeros((m * n, r))
    a = scaled_u.reshape(m, n, r).transpose(0, 2, 1).reshape(m * r, n)
    b = scaled_v.reshape(m, n, r).transpose(0, 2, 1).reshape(m * r, n)
    return StinespringPair(a, b, r)


def adjoint(phi: SuperOp) -> SuperOp:
    """Adjoint map ``phi^*: L(Y) -> L(X)`` with ``<Y, phi(X)> = <phi^*(Y), X>``."""
    rep = phi.rep
    if isinstance(rep, Kraus):
        left = tuple(k.conj().T for k in rep.left)
        right = tuple(k.conj().T for k in rep.right)
        return SuperOp(phi.dim_out, phi.dim_in, Kraus(left, right))
    kr = to_kraus(phi)
    return adjoint(kr)


def tensor(phi: SuperOp, psi: SuperOp) -> SuperOp:
    """Tensor product map under the global factor ordering (phi slow)."""
    kp = phi.rep if isinstance(phi.rep, Kraus) else to_kraus(phi).rep
    kq = psi.rep if isinstance(psi.rep, Kraus) else to_kraus(psi).rep
    left = tuple(np.kron(a, b) for a in kp.left for b in kq.left)
    right = tuple(np.kron(a, b) for a in kp.right for b in kq.right)
    return SuperOp(
        phi.dim_in * psi.dim_in, phi.dim_out * psi.dim_out, Kraus(left, right)
    )


def is_channel(phi: SuperOp) -> ChannelReport:
    """Complete positivity (Choi PSD) and trace preservation
    (``Tr_Y J = 1_X``) report."""
    n, m = phi.dim_in, phi.dim_out
    j = to_choi(phi)
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

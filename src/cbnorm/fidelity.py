"""Fidelity of PSD operators: closed form, SDP route via purifications, and
the positive-definite witness characterization (infimum of
``<P,Z><Q,Z^{-1}>``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dnorm import NormOptions, _solve_route
from .errors import InvalidInputError
from .linalg import (
    PSD_TOL,
    _sqrt_psd,
    herm_eig,
    hermitian_part,
    kron,
    min_eigenvalue,
    partial_trace,
)
from .superop import StinespringPair

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    fidelity_squared: float
    method: str
    gap: float
    alberti_z: np.ndarray | None = None


def _check_psd_pair(p, q):
    ph = hermitian_part(p)
    qh = hermitian_part(q)
    if ph.shape != qh.shape:
        raise InvalidInputError("operators must have matching dimensions")
    for name, mat in (("P", ph), ("Q", qh)):
        lo = min_eigenvalue(mat)
        scale = max(1.0, abs(lo))
        if lo < -PSD_TOL * scale:
            raise InvalidInputError(f"{name} is not PSD (min eig {lo:.3e})")
    return ph, qh


def fidelity_closed_form(p, q) -> float:
    """``Tr sqrt(sqrt(P) Q sqrt(P))``."""
    ph, qh = _check_psd_pair(p, q)
    root_p = _sqrt_psd(ph)
    return float(np.trace(_sqrt_psd(root_p @ qh @ root_p)).real)


def purification(p, dim_y: int) -> np.ndarray:
    """Vector ``u`` on ``Y (x) Z`` with ``Tr_Y(u u^dag) = P``.

    Built from the eigendecomposition with the elementary basis on ``Y``;
    requires ``dim_y >= rank(P)``.  Eigenvalues at most ``d eps lambda_max``
    (rounding level) are dropped.
    """
    vals, vecs = herm_eig(hermitian_part(p))
    return _purify(vals, vecs, dim_y, vals[0])


def _purify(vals, vecs, dim_y, top) -> np.ndarray:
    """:func:`purification` from a descending eigensystem; the rounding
    level is that of the spectral radius ``top``."""
    rank = int(np.sum(vals > PSD_TOL * max(1.0, abs(vals[0]))))
    if dim_y < rank:
        raise InvalidInputError(
            f"purification dimension {dim_y} below rank {rank}"
        )
    k = min(dim_y, int(np.sum(vals > len(vals) * EPS * max(top, 0.0))))
    u = np.zeros((dim_y, len(vals)), dtype=complex)
    u[:k] = (vecs[:, :k] * np.sqrt(vals[:k])).T
    return u.reshape(-1)


def fidelity_sdp(p, q, purification_dim: int | None = None) -> FidelityResult:
    """Fidelity via the trivial-input-space specialization of the general
    norm SDP on purifications of ``P`` and ``Q``, solved in closed form by
    the general route on their compressions onto the numerical support of
    the better-conditioned one (fidelity sees only those): the value lies in
    the certificate's bracket, and ``alberti_z`` is its witness ``Z``."""
    ph, qh = _check_psd_pair(p, q)
    d = ph.shape[0]
    dim_y = purification_dim if purification_dim is not None else d

    def support(vals):  # condition number and rank above rounding level
        kept = vals[vals > d * EPS * max(vals[0], 0.0)]
        return (kept[0] / kept[-1] if kept.size else np.inf), max(1, kept.size)

    eig_p, eig_q = herm_eig(ph), herm_eig(qh)
    (cond_p, k_p), (cond_q, k_q) = support(eig_p.values), support(eig_q.values)
    swapped = cond_q < cond_p
    (vals, vecs), other, k = (eig_q, eig_p, k_q) if swapped else \
        (eig_p, eig_q, k_p)
    basis = vecs[:, :k]
    g = basis.conj().T @ other.vectors
    u = _purify(vals[:k], np.eye(k), dim_y, vals[0])
    v = _purify(*herm_eig((g * other.values) @ g.conj().T), dim_y,
                other.values[0])
    pair = StinespringPair(u.reshape(-1, 1), v.reshape(-1, 1), k)
    res = _solve_route("general", (pair,), NormOptions())
    # Alberti's bound is an infimum where Z vanishes or is unbounded (off the
    # compressed space): clamped into [s, 1 / s] lambda_max, s = sqrt(eps),
    # Z is positive definite; inverted, it takes the caller's (P, Q) order.
    zvals, zvecs = herm_eig(res.certificate.z)
    top = zvals[0] if zvals[0] > 0 else 1.0
    zvals = np.concatenate([np.maximum(zvals, np.sqrt(EPS) * top),
                            np.full(d - k, top / np.sqrt(EPS))])
    lift = np.hstack([basis @ zvecs, vecs[:, k:]])
    z = (lift * zvals ** (-1.0 if swapped else 1.0)) @ lift.conj().T
    fid = float(res.value)
    return FidelityResult(fid, fid ** 2, "sdp_primal_dual",
                          res.solver_stats.gap, (z + z.conj().T) / 2)


def check_alberti_certificate(p, q, z) -> float:
    """Upper bound ``<P,Z> <Q,Z^{-1}>`` on the squared fidelity from a
    positive definite witness ``Z``."""
    ph, qh = _check_psd_pair(p, q)
    zh = hermitian_part(z)
    vals, vecs = herm_eig(zh)
    if vals[-1] <= 0:
        raise InvalidInputError("witness Z must be positive definite")
    z_inv = (vecs * (1.0 / vals)) @ vecs.conj().T
    return float(np.vdot(ph, zh).real * np.vdot(qh, z_inv).real)


class PropositionCheck(NamedTuple):
    lhs: bool
    rhs: bool
    inner: float


def check_proposition(v, z) -> PropositionCheck:
    """Evaluate both sides of the domination equivalence: for positive
    definite ``Z``, ``1 (x) Z >= v v^dag`` iff
    ``<Tr_Y(v v^dag), Z^{-1}> <= 1``."""
    vv = np.asarray(v, dtype=complex).reshape(-1)
    zh = hermitian_part(z)
    dz = zh.shape[0]
    if vv.size % dz != 0:
        raise InvalidInputError("vector length not divisible by dim(Z)")
    dy = vv.size // dz
    vals, vecs = herm_eig(zh)
    if vals[-1] <= 0:
        raise InvalidInputError("Z must be positive definite")
    outer = np.outer(vv, vv.conj())
    gap_mat = kron(np.eye(dy), zh) - outer
    scale = max(1.0, float(np.linalg.norm(vv) ** 2), float(vals[0]))
    lhs = min_eigenvalue(gap_mat) >= -1e-12 * scale
    z_inv = (vecs * (1.0 / vals)) @ vecs.conj().T
    reduced = partial_trace(outer, (dy, dz), side="first")
    inner = float(np.vdot(reduced, z_inv).real)
    rhs = inner <= 1.0 + 1e-12 * scale
    return PropositionCheck(lhs, rhs, inner)

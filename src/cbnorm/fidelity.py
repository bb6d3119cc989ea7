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
    herm_eig,
    hermitian_part,
    kron,
    matrix_sqrt_psd,
    min_eigenvalue,
    partial_trace,
)
from .superop import StinespringPair


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
    root_p = matrix_sqrt_psd(ph)
    inner = root_p @ qh @ root_p
    return float(np.trace(matrix_sqrt_psd((inner + inner.conj().T) / 2)).real)


def purification(p, dim_y: int) -> np.ndarray:
    """Vector ``u`` on ``Y (x) Z`` with ``Tr_Y(u u^dag) = P``.

    Built from the eigendecomposition with the elementary basis on ``Y``;
    requires ``dim_y >= rank(P)``.
    """
    ph = hermitian_part(p)
    d = ph.shape[0]
    vals, vecs = herm_eig(ph)
    rank = int(np.sum(vals > PSD_TOL * max(1.0, abs(vals[0]))))
    if dim_y < rank:
        raise InvalidInputError(
            f"purification dimension {dim_y} below rank {rank}"
        )
    u = np.zeros(dim_y * d, dtype=complex)
    for i in range(min(dim_y, d)):
        u[i * d:(i + 1) * d] = np.sqrt(max(vals[i], 0.0)) * vecs[:, i]
    return u


def fidelity_sdp(p, q, purification_dim: int | None = None) -> FidelityResult:
    """Fidelity via the trivial-input-space specialization of the general
    norm SDP on purifications of ``P`` and ``Q``, solved by the general
    route: the value lies in the repaired certificate's bracket, and
    ``alberti_z`` is its witness ``Z``."""
    ph, qh = _check_psd_pair(p, q)
    d = ph.shape[0]
    dim_y = purification_dim if purification_dim is not None else d
    # Fidelity is symmetric; put the better-conditioned operator on the
    # constraint side, where a singular marginal would kill strict primal
    # feasibility and stall the central path.
    def _rel_floor(mat):
        tr = max(float(np.trace(mat).real), 1e-300)
        return min_eigenvalue(mat) / tr

    swapped = _rel_floor(ph) < _rel_floor(qh)
    first, second = (qh, ph) if swapped else (ph, qh)
    u = purification(first, dim_y)
    v = purification(second, dim_y)
    pair = StinespringPair(u.reshape(-1, 1), v.reshape(-1, 1), d)
    res = _solve_route("general", (pair,), NormOptions(gap_tol=1e-9))
    z = res.certificate.z
    if swapped:
        # The witness satisfies <first, Z> <second, Z^{-1}> ~ F^2; restore
        # the caller's (P, Q) order by inverting (after regularization).
        vals, vecs = herm_eig(z)
        floor = max(vals[0], 1.0) * 1e-14
        z = (vecs * (1.0 / np.maximum(vals, floor))) @ vecs.conj().T
        z = (z + z.conj().T) / 2
    fid = float(res.value)
    return FidelityResult(fid, fid ** 2, "sdp_primal_dual",
                          res.solver_stats.gap, z)


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

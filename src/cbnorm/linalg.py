"""Dense complex linear algebra kernel.

Everything else in the package works with plain ``numpy.ndarray`` values in
row-major layout.  The tensor convention is fixed globally: for an operator
on a product space the *first* factor is the slow index, so an index pair
``(i, j)`` on ``Y (x) X`` maps to the flat index ``i * dim_x + j``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NotPositiveSemidefiniteError

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def as_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    return a


def spectral_norm(m) -> float:
    """Largest singular value."""
    a = as_matrix(m)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def trace_norm(m) -> float:
    """Sum of singular values."""
    a = as_matrix(m)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def hermitian_part(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate that ``m`` is Hermitian within ``tol`` (relative) and return
    the exactly Hermitian average (m + m^dagger) / 2."""
    a = as_square(m)
    scale = max(1.0, spectral_norm(a))
    dev = spectral_norm(a - a.conj().T)
    if dev > tol * scale:
        raise InvalidInputError(
            f"matrix is not Hermitian: |M - M^dag| = {dev:.3e} exceeds "
            f"{tol:.1e} x max(1, |M|)"
        )
    return (a + a.conj().T) / 2


class Eigensystem(NamedTuple):
    """Eigenvalues in descending order with orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(m) -> Eigensystem:
    """Eigendecomposition of ``(m + m^dag) / 2``, eigenvalues descending.

    It does not check Hermiticity: callers pass matrices that are Hermitian
    by construction or checked by :func:`hermitian_part`."""
    a = as_square(m)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    order = np.argsort(vals)[::-1]
    return Eigensystem(vals[order], vecs[:, order])


def matrix_sqrt_psd(p) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-PSD_TOL * scale, 0)`` are clamped to zero; anything
    more negative raises, and so does a non-Hermitian ``p``.
    """
    return _sqrt_psd(hermitian_part(p))


def _sqrt_psd(h) -> np.ndarray:
    """:func:`matrix_sqrt_psd` of a matrix already checked Hermitian."""
    vals, vecs = herm_eig(h)
    scale = max(1.0, float(vals[0]) if vals.size else 1.0)
    if vals.size and vals[-1] < -PSD_TOL * scale:
        raise NotPositiveSemidefiniteError(
            f"matrix has eigenvalue {vals[-1]:.3e} below -PSD_TOL"
        )
    clamped = np.maximum(vals, 0.0)
    root = (vecs * np.sqrt(clamped)) @ vecs.conj().T
    return (root + root.conj().T) / 2


def kron(m, n) -> np.ndarray:
    """Kronecker product under the global (slow first factor) convention."""
    return np.kron(as_matrix(m), as_matrix(n))


def partial_trace(m, dims: tuple[int, int], side: str = "second") -> np.ndarray:
    """Trace out one tensor factor of an operator on ``Y (x) Z``.

    ``dims = (dim_y, dim_z)``; ``side`` selects the traced factor.
    """
    dy, dz = dims
    a = as_square(m)
    if a.shape[0] != dy * dz:
        raise InvalidInputError(
            f"matrix of size {a.shape[0]} does not match dims {dy}x{dz}"
        )
    t = a.reshape(dy, dz, dy, dz)
    if side == "second":
        return np.einsum("ikjk->ij", t)
    if side == "first":
        return np.einsum("kikj->ij", t)
    raise InvalidInputError(f"side must be 'first' or 'second', got {side!r}")


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian matrix."""
    a = as_square(m)
    a = (a + a.conj().T) / 2
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[0])


def max_eigenvalue(m) -> float:
    a = as_square(m)
    a = (a + a.conj().T) / 2
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[-1])

"""Dense symmetric eigensolver: LAPACK (through numpy.linalg.eigh) behind a
validating wrapper.

The wrapper rejects input that is not a finite, square, symmetric real
matrix, and reports every failure as EigenSolverError, so callers see one
error type whatever went wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12


class EigenSolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(a: np.ndarray) -> EigenDecomposition:
    """Diagonalize a real symmetric matrix.

    Returns ascending eigenvalues and C-contiguous eigenvector columns;
    raises EigenSolverError on non-square, non-finite or non-symmetric
    input, or if LAPACK does not converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenSolverError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise EigenSolverError("matrix has non-finite entries")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > SYMMETRY_TOL * scale:
        raise EigenSolverError("matrix is not symmetric")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(
        eigenvalues=eigenvalues, eigenvectors=np.ascontiguousarray(eigenvectors)
    )

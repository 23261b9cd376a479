"""Dense numerics kernel for the small matrices used across the package.

Everything operates on plain float ``numpy`` arrays of modest size (dimension
sixteen or below); tolerances are chosen for that regime and are part of the
module contract, not tuning knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteInputError,
    NonSquareError,
    NotSymmetricError,
)

#: Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising on anything else."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteInputError(f"{name} has non-finite entries")
    return A


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInputError(f"{name} has non-finite entries")
    return x


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` holds the matching orthonormal
    eigenvectors as columns, so ``Q @ diag(w) @ Q.T`` rebuilds the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(S) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix.

    Raises NonSquareError / NotSymmetricError on malformed input and
    NoConvergenceError if the iteration cap is hit.
    """
    S = as_matrix(S, "S")
    if S.shape[0] != S.shape[1]:
        raise NonSquareError(f"expected a square matrix, got {S.shape}")
    scale = np.linalg.norm(S)
    asym = np.linalg.norm(S - S.T)
    if asym > SYMMETRY_RTOL * max(1.0, scale):
        raise NotSymmetricError(
            f"relative asymmetry {asym / max(1.0, scale):.3e} exceeds {SYMMETRY_RTOL:.0e}"
        )
    try:
        w, Q = np.linalg.eigh(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:  # iteration cap inside LAPACK
        raise NoConvergenceError(str(exc)) from exc
    return SymEigen(w, Q)


def spectral_norm(A) -> float:
    """Largest singular value (operator 2-norm)."""
    A = as_matrix(A, "A")
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))

"""Input coercion for the small dense arrays used across the package, and
a stacked Frobenius norm.  Linear algebra itself is plain ``numpy.linalg``;
coercion turns inputs into finite float arrays of the expected rank,
raising package errors otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteInputError


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


def frobenius(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each of a stack, bit for bit as
    ``np.linalg.norm`` gives it for one in C order: the root of one dot
    product of the flat entries (a two-axis reduction sums in another order)."""
    flat = X.reshape(X.shape[:-2] + (1, -1))
    return np.sqrt(flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]

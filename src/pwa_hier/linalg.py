"""Input coercion for the small dense arrays used across the package, and
a stacked Frobenius norm.  Linear algebra itself is plain ``numpy.linalg``;
coercion turns inputs into finite float arrays of the expected rank, or
positive finite scalars, raising package errors otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteInputError, PwaHierError


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising on anything else."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteInputError(f"{name} has non-finite entries")
    return A


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.isfinite(x).all():
        raise NonFiniteInputError(f"{name} has non-finite entries")
    return x


def as_positive(x, name: str, error: type[PwaHierError]) -> float:
    """Coerce to a positive finite float, raising ``error`` otherwise."""
    x = float(x)
    if not 0.0 < x < np.inf:
        raise error(f"{name} must be positive and finite, got {x}")
    return x


def frobenius(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each of a stack: the root of one dot
    product of the flat entries, taken over the entries scaled by a power of
    two so that it neither overflows nor underflows.  The scaling is exact
    and commutes with the root, so on in-range input the result is bit for
    bit ``np.linalg.norm`` of one matrix in C order (a two-axis reduction
    sums in another order); a norm beyond the double range is ``inf``."""
    flat = X.reshape(X.shape[:-2] + (1, -1))
    exp = np.frexp(np.abs(flat).max(axis=-1, keepdims=True, initial=0.0))[1]
    scaled = np.ldexp(flat, -exp)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(scaled @ np.swapaxes(scaled, -1, -2)), exp)[..., 0, 0]

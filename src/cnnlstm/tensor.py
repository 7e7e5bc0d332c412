"""Dense float64 array substrate.

Every numeric value in the toolkit lives in a rank-1/2/3 row-major
(C-contiguous) ``numpy.ndarray`` of float64. The helpers here are the only
sanctioned constructors and the matrix primitive the layers build on. All
operations are pure: inputs are never mutated and outputs are freshly
allocated.
"""

import numpy as np

from .errors import NumericError, ShapeError


def tensor(values) -> np.ndarray:
    """Coerce ``values`` to a validated rank-1/2/3 float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 3:
        raise ShapeError(f"tensors are rank 1-3, got rank {arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
    ensure_finite(arr, "tensor")
    return np.ascontiguousarray(arr)


def ensure_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{context}: result contains non-finite values")
    return arr


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two rank-2 tensors; c[i,j] = sum_p a[i,p]*b[p,j]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    return ensure_finite(a @ b, "matmul")


"""Input validation helpers used across the library.

Every public entry point of the library validates its inputs through these
functions so that error messages are consistent and informative.  All
functions either return a canonicalized ``numpy.ndarray`` (C-contiguous,
``float64`` unless stated otherwise) or raise ``ValueError`` / ``TypeError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ensure_1d",
    "ensure_2d",
    "check_square",
    "check_symmetric",
    "check_covariance",
    "check_limits",
    "check_positive_int",
    "check_probability",
]


def ensure_1d(x, name: str = "array", dtype=np.float64) -> np.ndarray:
    """Return ``x`` as a 1-D contiguous array of ``dtype``.

    Parameters
    ----------
    x : array_like
        Input vector.
    name : str
        Name used in error messages.
    dtype : numpy dtype
        Target dtype.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def ensure_2d(x, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Return ``x`` as a 2-D contiguous array of ``dtype``."""
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


def check_square(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a square 2-D matrix and return it as float64."""
    arr = ensure_2d(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_symmetric(a, name: str = "matrix", tol: float = 1e-8) -> np.ndarray:
    """Validate that ``a`` is symmetric up to relative tolerance ``tol``.

    An exactly symmetric matrix (the common case: covariances built or
    assembled symmetric) passes on one ``array_equal`` test; the tolerance
    scale and the ``allclose`` comparison run only when that fails.  Exact
    equality implies closeness, so the verdict is the same either way.
    """
    arr = check_square(a, name)
    if np.array_equal(arr, arr.T):
        return arr
    scale = max(1.0, float(np.max(np.abs(arr))))
    if not np.allclose(arr, arr.T, atol=tol * scale, rtol=0.0):
        raise ValueError(f"{name} must be symmetric (tolerance {tol})")
    return arr


def check_covariance(sigma, name: str = "covariance", require_spd: bool = False) -> np.ndarray:
    """Validate a covariance matrix.

    Checks squareness, finiteness (naming the first NaN/inf entry), symmetry,
    strictly positive diagonal and, when ``require_spd`` is set, positive
    definiteness via a Cholesky attempt.
    """
    arr = check_square(sigma, name)
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{name} must be finite: entry ({i}, {j}) is {arr[i, j]}")
    arr = check_symmetric(arr, name)
    if np.any(np.diag(arr) <= 0.0):
        raise ValueError(f"{name} must have a strictly positive diagonal")
    if require_spd:
        try:
            np.linalg.cholesky(arr)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - message passthrough
            raise ValueError(f"{name} must be symmetric positive definite") from exc
    return arr


def check_limits(a, b, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Validate lower/upper MVN integration limits.

    Infinite entries are allowed (and common: orthant probabilities use
    ``a = -inf``).  NaNs are rejected, as are any positions where the lower
    limit exceeds the upper limit.
    """
    a = ensure_1d(a, "lower limits a")
    b = ensure_1d(b, "upper limits b")
    if a.shape != b.shape:
        raise ValueError(f"lower and upper limits must have the same shape, got {a.shape} vs {b.shape}")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"integration limits must have length {n}, got {a.shape[0]}")
    if np.any(np.isnan(a)) or np.any(np.isnan(b)):
        raise ValueError("integration limits must not contain NaN")
    if np.any(a > b):
        bad = int(np.argmax(a > b))
        raise ValueError(f"lower limit exceeds upper limit at index {bad}: a={a[bad]} > b={b[bad]}")
    return a, b


def check_positive_int(value, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_probability(p, name: str = "probability") -> float:
    """Validate that ``p`` lies in the closed interval [0, 1]."""
    p = float(p)
    if not (0.0 <= p <= 1.0) or np.isnan(p):
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p

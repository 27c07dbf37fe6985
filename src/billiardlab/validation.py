"""Input validation helpers.

Small checkers shared by the public entry points.  They normalise array
input to contiguous float64/complex128 and raise
:class:`~billiardlab.errors.InvalidArgumentError` with a message naming
the offending argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "as_float_array",
    "as_complex_array",
    "check_ascending",
    "check_positive",
]


def as_float_array(x, name: str, ndim: int = 1) -> np.ndarray:
    """Convert ``x`` to a float64 array of the given dimensionality."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise InvalidArgumentError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite values")
    return arr


def as_complex_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite values")
    return arr


def check_ascending(arr: np.ndarray, name: str, strict: bool = True) -> None:
    d = np.diff(arr)
    if strict and np.any(d <= 0):
        raise InvalidArgumentError(f"{name} must be strictly ascending")
    if not strict and np.any(d < 0):
        raise InvalidArgumentError(f"{name} must be ascending")


def check_positive(x, name: str, allow_inf: bool = False) -> float:
    x = float(x)
    if math.isnan(x) or x <= 0 or (not allow_inf and math.isinf(x)):
        raise InvalidArgumentError(f"{name} must be positive, got {x!r}")
    return x

"""Input validation helpers.

Small checkers shared by the public entry points.  They normalise array
input to contiguous float64/complex128 and raise
:class:`~billiardlab.errors.InvalidArgumentError` with a message naming
the offending argument.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "as_float_array",
    "as_complex_array",
    "check_ascending",
    "check_count",
    "check_positive",
    "is_real",
]


def _as_finite_1d(x, name: str, dtype) -> np.ndarray:
    """Convert ``x`` to a finite 1-D array of ``dtype``."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite values")
    return arr


def as_float_array(x, name: str) -> np.ndarray:
    return _as_finite_1d(x, name, float)


def as_complex_array(x, name: str) -> np.ndarray:
    return _as_finite_1d(x, name, complex)


def check_ascending(arr: np.ndarray, name: str, strict: bool = True) -> None:
    """Raise unless ``arr`` ascends (strictly if ``strict``); a NaN fails either comparison."""
    d = np.diff(arr)
    if not np.all(d > 0 if strict else d >= 0):
        raise InvalidArgumentError(f"{name} must be {'strictly ascending' if strict else 'ascending'}")


def is_real(x) -> bool:
    """Whether ``np.asarray(x)[()]`` is a ``numbers.Real``: true for Python and numpy reals and 0-d arrays,
    false for text and bools (numpy's bool is no ``numbers.Real``)."""
    return isinstance(np.asarray(x)[()], numbers.Real)


def check_positive(x, name: str) -> float:
    """``x`` as a float; ``x`` must pass ``is_real`` (text and bools raise), be finite and > 0."""
    if not (is_real(x) and 0.0 < float(x) < math.inf):
        raise InvalidArgumentError(f"{name} must be a finite positive number, got {x!r}")
    return float(x)


def check_count(x, name: str, minimum: int) -> int:
    """``x`` as an int; ``np.asarray(x)[()]`` must be a ``numbers.Integral`` >= ``minimum``."""
    if not isinstance(np.asarray(x)[()], numbers.Integral) or x < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum} and an integer, got {x!r}")
    return int(x)

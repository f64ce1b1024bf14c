"""The input contract of the public numeric functions.

Every public function of ``cox``, ``metrics``, ``survival``, ``trainer``
and ``biomarkers`` that takes 1-d numeric arrays passes them through
:func:`vectors` once, at its boundary, so all of them agree on what
valid input is.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def vectors(positive=(), **arrays) -> tuple[np.ndarray, ...]:
    """The keyword arrays as finite, non-empty 1-d float64 arrays of one length.

    Names in ``positive`` must hold values > 0. An argument named
    ``events`` must hold 0/1 flags and comes back as bool. The arrays
    come back in keyword order; a DataError names the argument that
    failed.
    """
    out = []
    for name, value in arrays.items():
        try:
            a = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise DataError(f"{name} must be numeric") from None
        if a.ndim != 1 or a.size == 0:
            raise DataError(f"{name} must be a non-empty 1-d array, got shape {a.shape}")
        if out and a.size != out[0].size:
            first = next(iter(arrays))
            raise DataError(f"{name} has length {a.size}, {first} has {out[0].size}")
        if not np.isfinite(a).all():
            raise DataError(f"{name} holds non-finite values")
        if name in positive and not (a > 0).all():
            raise DataError(f"{name} must be > 0")
        if name == "events":
            a = as_flags(name, a)
        out.append(a)
    return tuple(out)


def positive(name: str, value: float, below: float = np.inf) -> float:
    """``value`` if 0 < value < ``below`` (NaN is not); DataError naming ``name`` otherwise."""
    if not 0.0 < value < below:
        raise DataError(f"{name} must lie in (0, {below:g}), got {value!r}")
    return value


def integer(name: str, value, low: int | None = None) -> int:
    """An int ``value`` (numpy's too, not bool) >= ``low``; DataError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DataError(f"{name} must be >= {low}, got {value!r}")
    return value


def as_flags(name: str, a: np.ndarray) -> np.ndarray:
    """Float ``a`` as bool; DataError naming ``name`` unless every value is 0 or 1."""
    if not ((a == 0) | (a == 1)).all():
        raise DataError(f"{name} must hold 0/1 flags")
    return a == 1

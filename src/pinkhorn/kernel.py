"""KL divergence and stable elementary operations.

KL is the Bregman divergence of the entropy map x -> sum_i x_i (log x_i - 1),
so one function is both the mirror-descent geometry and the penalty
objective.  Everything here is a pure function of strictly positive double
arrays, the natural domain of that map.  Inputs with zeros or negative
entries are rejected eagerly rather than patched with 0*log(0) conventions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_positive_vector",
    "kl_terms",
    "kl_div",
    "log_sum_exp",
]
_F64 = np.dtype(np.float64)  # native float64; builtin dtypes are singletons


def as_positive_vector(x) -> np.ndarray:
    """Return ``x`` as a 1-D float64 array after checking finiteness and positivity."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        raise ValueError("expected a vector with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if np.any(v <= 0.0):
        raise ValueError("vector entries must be strictly positive")
    return v


def _check_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def kl_terms(x, y) -> np.ndarray:
    """Elementwise KL terms x log(x/y) - x + y, computed without cancellation.

    The naive three-term form loses all precision once x is within a few
    ulps of y (each term is O(y) while the difference is O((x-y)^2/y)), so
    this evaluates y * ((1+t) log1p(t) - t) with t = x/y - 1 instead.
    Callers feeding greedy selection and descent checks rely on tiny terms
    staying resolvable.  Inputs must be nonnegative arrays of matching
    shape, or a ``y`` that broadcasts to the shape of ``x`` (one target
    vector for a stack of them); a term with x = y = 0 is 0, and a term is
    inf only where it lies beyond the double range.  Divide, overflow and
    invalid are ignored; underflow and the error callback stay the caller's.
    """
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=np.float64)
    if type(y) is not np.ndarray or y.dtype is not _F64:
        y = np.asarray(y, dtype=np.float64)
    # h = ratio log1p(t) - t is formed in the ratio buffer (an array even
    # for 0-d inputs), in the operation order of that expression
    h = np.divide(x, y, out=np.empty_like(x))
    t = h - 1.0
    np.multiply(h, np.log1p(t), out=h)
    np.subtract(h, t, out=h)
    # h is -inf or NaN only at the two limits, where the term is y |t|:
    # below x/y = 2^-54, t rounds to -1 and log1p(-1) = -inf (x/y may
    # even underflow to zero), and y (1 - r + r log r) = y to an ulp;
    # when x/y overflows, t is inf.  At x = y = 0, 0/0 is NaN and the
    # term is 0 (0 log 0 = 0).  h is inf where x/y or x/y log(x/y)
    # overflows, yet the term x (log x - log y) - x + y may be finite:
    # there it is taken in logs, and is inf only beyond the double range.
    # One sum of squares finds all three, and is finite on the common path
    # (past |h| ~ 1e154 it overflows too, where the branch changes nothing)
    overflow = None
    if not np.vdot(h, h) < np.inf:
        np.copyto(h, np.where(x == y, 0.0, np.abs(t)), where=~(h > -np.inf))
        overflow = (h == np.inf) & (x < np.inf)
    # each term is mathematically >= 0; shave off negative roundoff
    np.maximum(h, 0.0, out=h)
    np.multiply(h, y, out=h)
    if overflow is not None and overflow.any():
        np.copyto(h, x * (np.log(x) - np.log(y)) - x + y, where=overflow)
    return h


def kl_div(x, y) -> float:
    """KL divergence sum_i (x_i log(x_i / y_i) - x_i + y_i) of positive vectors.

    Nonnegative, and zero exactly when ``x == y``.
    """
    x = as_positive_vector(x)
    y = as_positive_vector(y)
    _check_same_shape(x, y)
    return float(np.sum(kl_terms(x, y)))


def log_sum_exp(v, axis: int | None = None):
    """Overflow-free log(sum(exp(v))) via the usual max shift.

    With ``axis`` given, reduces a matrix along that axis and returns a
    vector; otherwise reduces everything to a float.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty array")
    if not np.all(np.isfinite(v)):
        raise ValueError("log_sum_exp requires finite entries")
    m = np.max(v, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(v - m), axis=axis, keepdims=True))
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)

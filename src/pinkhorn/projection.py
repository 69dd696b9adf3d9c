"""KL-geometry projections onto affine hyperplanes and the entropy prox.

The projection of a positive vector onto ``{z : <a, z> = b}`` in KL distance
has the form ``z = x * exp(alpha * a)`` (coordinate-wise).  For 0/1 rows the
multiplier is closed form, ``alpha = log(b / <a, x>)``, which is plain
proportional rescaling of the support.  For general nonnegative rows alpha
is the root of a monotone convex 1-D equation, solved here by Newton's method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import as_positive_vector, log_sum_exp

__all__ = [
    "Hyperplane",
    "ConvergenceError",
    "project_binary",
    "project_general",
    "bregman_prox_entropy_linear",
]


_NEWTON_MAX_ITER = 200  # Newton steps project_general takes before ConvergenceError


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration cap."""


def _sparse_rows(row, col, val, b):
    """Validated (row, col, value) entries of nonnegative rows with targets b.

    Returns ``(col, val, b, indptr)``: explicit zeros dropped, entries sorted
    by (row, col), row ``i`` at ``indptr[i]:indptr[i + 1]``.  Raises
    ValueError on a bad value or target, a repeated pair or an empty row.
    """
    col = np.atleast_1d(np.asarray(col, dtype=np.intp))
    val = np.atleast_1d(np.asarray(val, dtype=np.float64))
    b = np.array(b, dtype=np.float64).reshape(-1)
    if col.ndim != 1 or val.shape != col.shape:
        raise ValueError("indices and values must be 1-D and equally long")
    if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
        raise ValueError("target b must be finite and > 0")
    if not np.all((val >= 0.0) & (val < np.inf)):
        raise ValueError("row values must be finite and nonnegative")
    keep = np.flatnonzero(val > 0.0)
    keep = keep[np.lexsort((col[keep], row[keep]))]
    row, col, val = row[keep], col[keep], val[keep]
    if np.any(col < 0):
        raise ValueError("row indices must be nonnegative")
    if np.any((np.diff(row) == 0) & (np.diff(col) == 0)):
        raise ValueError("row indices must be distinct")
    counts = np.bincount(row, minlength=b.size)
    if not counts.size or not counts.all():
        raise ValueError("need at least one row, each with at least one positive entry")
    return col, val, b, np.concatenate(([0], np.cumsum(counts)))


@dataclass(frozen=True)
class Hyperplane:
    """Sparse nonnegative constraint row ``<a, x> = b`` with target ``b > 0``.

    Stored as sorted (index, value) pairs; explicit zeros are dropped.
    ``is_binary`` is true when every stored coefficient equals 1, the case
    with a closed-form KL projection.
    """

    indices: np.ndarray
    values: np.ndarray
    b: float
    is_binary: bool = field(init=False)

    def __post_init__(self):
        b = float(self.b)
        row = np.zeros(np.size(self.indices), dtype=np.intp)
        idx, val, _, _ = _sparse_rows(row, self.indices, self.values, b)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "is_binary", bool(np.all(val == 1.0)))

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    def dot(self, x: np.ndarray) -> float:
        """Inner product ``<a, x>`` touching only the support."""
        return float(self.values @ x[self.indices])


def project_binary(x, h: Hyperplane) -> np.ndarray:
    """Closed-form KL projection onto a 0/1 row: rescale the support by b/<a,x>."""
    x = as_positive_vector(x)
    if not h.is_binary:
        raise ValueError("project_binary requires a 0/1 row")
    s = h.dot(x)
    if s <= 0.0:
        raise ValueError("inner product <a, x> must be positive")
    z = x.copy()
    z[h.indices] *= h.b / s
    return z


def project_general(x, h: Hyperplane, tol: float = 1e-12) -> np.ndarray:
    """KL projection onto a general nonnegative row via a 1-D root solve.

    Finds the unique alpha with ``sum_j a_j x_j exp(alpha a_j) = b`` and
    returns ``x * exp(alpha * a)``.  The residual is driven below ``tol * b``
    within ``_NEWTON_MAX_ITER`` Newton steps, else ConvergenceError; the
    solve works on log(sum exp) so huge exponents cannot overflow.  The
    residual log <a, x exp(alpha a)> - log b is increasing and convex in
    alpha, with slope at least min a > 0, so Newton needs no safeguard: from
    the start log(b / <a, x>) / max a it descends monotonically onto the
    root when the residual is >= 0 there, and lands above the root in one
    step when it is < 0.
    """
    x = as_positive_vector(x)
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    a = h.values
    xs = x[h.indices]
    s = float(a @ xs)
    if s <= 0.0:
        raise ValueError("inner product <a, x> must be positive")
    base = np.log(a) + np.log(xs)
    log_b = np.log(h.b)
    alpha = np.log(h.b / s) / float(a.max())
    for _ in range(_NEWTON_MAX_ITER + 1):
        r = log_sum_exp(base + alpha * a) - log_b
        # the step from below may land far above the root, where expm1 is inf
        with np.errstate(over="ignore"):
            if abs(np.expm1(r)) <= tol:
                z = x.copy()
                z[h.indices] *= np.exp(alpha * a)
                return z
        # d/dalpha log sum exp = softmax-weighted mean of the coefficients
        alpha -= r / float(a @ np.exp(base + alpha * a - (r + log_b)))
    raise ConvergenceError(f"projection multiplier did not converge within {_NEWTON_MAX_ITER} iterations")


def bregman_prox_entropy_linear(x, c, eta: float) -> np.ndarray:
    """Entropy-Bregman prox of ``f(z) = <z, log z> - <c, z>`` with weight eta.

    Minimizes ``eta * f(z) + KL(z, x)``.  Stationarity gives
    ``(1 + eta) log z = log x + eta (c - 1)``, i.e.

        z = x**(1/(1+eta)) * exp(eta * (c - 1) / (1 + eta))

    (note the power on x, which a plain rescaling formula would miss).
    """
    x = as_positive_vector(x)
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if c.shape != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("linear coefficients must be finite")
    eta = float(eta)
    if not np.isfinite(eta) or eta < 0.0:
        raise ValueError("eta must be finite and >= 0")
    if eta == 0.0:
        return x.copy()
    log_z = (np.log(x) + eta * (c - 1.0)) / (1.0 + eta)
    with np.errstate(over="ignore"):
        z = np.exp(log_z)
    if np.any(np.isinf(z)):
        i = int(np.argmax(np.isinf(z)))
        raise OverflowError(f"prox overflows at index {i}")
    return z

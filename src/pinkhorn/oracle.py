"""Independent reference computations used by the test suite and ``check``.

Everything here is deliberately brute force: finite differences instead of
analytic gradients, golden-section search plus bisection on the derivative's
sign instead of the closed-form prox, and a by-hand closed form for a
symmetric 2x2 transport instance.  None of it shares code paths with the
quantities it validates.
"""

from __future__ import annotations

import numpy as np

from .kernel import as_positive_vector
from .projection import ConvergenceError

__all__ = [
    "fd_gradient",
    "prox_1d_numeric",
    "analytic_symmetric_2x2",
]

_FD_STEP = 1e-6  # central-difference step, relative to each coordinate
_PROX_TOL = 1e-10  # width at which prox_1d_numeric's golden-section search stops


def fd_gradient(field, x) -> np.ndarray:
    """Central-difference gradient of a scalar field with per-coordinate relative step."""
    x = as_positive_vector(x)
    grad = np.empty(x.size)
    for i in range(x.size):
        h = _FD_STEP * x[i]
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (field(hi) - field(lo)) / (2.0 * h)
    return grad


def prox_1d_numeric(x: float, c: float, eta: float) -> float:
    """Scalar entropic prox by golden-section search, no closed form involved.

    Minimizes eta*(z log z - c z) + z log(z/x) - z + x for z > 0.  The
    bracket starts at [1e-12, x] and the upper end quadruples until the
    objective's derivative turns positive; golden-section narrows it, then
    sign bisection on the derivative polishes the last digits.
    """
    x = float(x)
    c = float(c)
    eta = float(eta)
    if not x > 0.0:
        raise ValueError("x must be positive")
    if not np.isfinite(eta) or eta < 0.0:
        raise ValueError("eta must be finite and >= 0")
    if eta == 0.0:
        return x

    def phi(z: float) -> float:
        return eta * (z * np.log(z) - c * z) + z * (np.log(z) - np.log(x)) - z + x

    def dphi(z: float) -> float:
        return eta * (np.log(z) + 1.0 - c) + np.log(z) - np.log(x)

    lo = 1e-12
    hi = max(x, lo * 4.0)
    grow = 0
    while dphi(hi) <= 0.0:
        hi *= 4.0
        grow += 1
        if grow > 600:
            raise ConvergenceError("prox bracket did not close")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    m1 = b - invphi * (b - a)
    m2 = a + invphi * (b - a)
    f1, f2 = phi(m1), phi(m2)
    while b - a > _PROX_TOL:
        if f1 <= f2:
            b, m2, f2 = m2, m1, f1
            m1 = b - invphi * (b - a)
            f1 = phi(m1)
        else:
            a, m1, f1 = m1, m2, f2
            m2 = a + invphi * (b - a)
            f2 = phi(m2)
    # function values flatten to noise near the minimum, so the narrowed
    # bracket can drift off the minimizer; finish on the derivative sign,
    # over the original bracket if the narrowed one lost the sign change
    if dphi(a) > 0.0 or dphi(b) < 0.0:
        a, b = lo, hi
    for _ in range(2000):
        mid = 0.5 * (a + b)
        if dphi(mid) <= 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-14 * max(1.0, b):
            break
    return 0.5 * (a + b)


def analytic_symmetric_2x2(gamma: float) -> tuple[np.ndarray, float]:
    """Closed-form entropic plan for cost [[0,1],[1,0]] and uniform marginals.

    Symmetry forces the plan into the form [[a, b], [b, a]] with a + b =
    1/2, and the diagonal scaling of the Gibbs kernel fixes the ratio
    a / b = e^{1/gamma}.  With k = e^{-1/gamma} that gives
    plan = [[1, k], [k, 1]] / (2 (1 + k)) and transport cost k / (1 + k).
    """
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    k = float(np.exp(-1.0 / gamma))
    plan = np.array([[1.0, k], [k, 1.0]]) / (2.0 * (1.0 + k))
    cost = k / (1.0 + k)
    return plan, cost

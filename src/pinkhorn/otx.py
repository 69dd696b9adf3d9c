"""Entropic optimal transport problem layer.

An instance holds a cost matrix, a regularization strength ``gamma`` and
positive marginals.  The unconstrained optimum of the regularized objective
is the Gibbs kernel exp(-C/gamma); solving the problem means KL-projecting
that kernel onto the row/column marginal constraints.  This module supplies
the kernel, plan reconstruction from dual potentials, cost evaluation, the
equivalent constraint-system view, and post-hoc rounding of nearly feasible
plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import as_positive_vector, kl_terms
from .penalty import ConstraintSystem

__all__ = [
    "OTProblem",
    "Potentials",
    "gibbs_kernel",
    "plan_from_potentials",
    "transport_cost",
    "marginal_violation",
    "as_constraint_system",
    "round_to_feasible",
]

_MARGINAL_SUM_TOL = 1e-12
# exp overflows double just above this exponent
_EXP_OVERFLOW = 709.782712893384


@dataclass(frozen=True)
class OTProblem:
    """Cost matrix, regularization gamma > 0, and positive marginals p, q.

    Marginals must each sum to 1 (within 1e-12) and have no zero entries;
    points with zero mass should be stripped before construction.  The cost
    matrix may be rectangular.
    """

    cost: np.ndarray
    gamma: float
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        cost = np.atleast_2d(np.asarray(self.cost, dtype=np.float64))
        if cost.ndim != 2:
            raise ValueError("cost must be a matrix")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost entries must be finite")
        gamma = float(self.gamma)
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ValueError("gamma must be finite and > 0")
        p = as_positive_vector(self.p)
        q = as_positive_vector(self.q)
        if p.size != cost.shape[0] or q.size != cost.shape[1]:
            raise ValueError(
                f"marginal lengths {p.size}, {q.size} do not match cost shape {cost.shape}"
            )
        for name, m in (("p", p), ("q", q)):
            if abs(m.sum() - 1.0) > _MARGINAL_SUM_TOL:
                raise ValueError(f"marginal {name} must sum to 1 (got {m.sum()!r})")
        # -C/gamma, the log kernel every solver starts from, must be finite
        if not float(np.abs(cost).max()) / gamma < np.inf:
            raise ValueError(f"max|C| / gamma overflows for gamma {gamma!r}")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cost.shape


@dataclass(frozen=True)
class Potentials:
    """Dual scaling vectors (u, v); the plan is exp(u_i - C_ij/gamma + v_j)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=np.float64))
        v = np.atleast_1d(np.asarray(self.v, dtype=np.float64))
        if u.ndim != 1 or v.ndim != 1:
            raise ValueError("potentials must be vectors")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("potentials must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def gibbs_kernel(problem: OTProblem) -> np.ndarray:
    """Log-domain Gibbs kernel -C/gamma (exp of it is the unconstrained optimum)."""
    return -problem.cost / problem.gamma


def plan_from_potentials(problem: OTProblem, pot: Potentials) -> np.ndarray:
    """Materialize the plan exp(u_i - C_ij/gamma + v_j) from dual potentials."""
    if pot.u.size != problem.shape[0] or pot.v.size != problem.shape[1]:
        raise ValueError("potential lengths do not match the problem shape")
    log_plan = pot.u[:, None] + gibbs_kernel(problem) + pot.v[None, :]
    if np.any(log_plan > _EXP_OVERFLOW):
        ij = np.argwhere(log_plan > _EXP_OVERFLOW)
        raise OverflowError(
            f"plan entries overflow at indices {[tuple(t) for t in ij[:5]]}"
        )
    return np.exp(log_plan)


def transport_cost(problem: OTProblem, plan) -> float:
    """Frobenius inner product <C, X> of the cost with a plan."""
    plan = np.atleast_2d(np.asarray(plan, dtype=np.float64))
    if plan.shape != problem.shape:
        raise ValueError(f"plan shape {plan.shape} does not match cost {problem.shape}")
    return float(np.sum(problem.cost * plan))


def _marginals(plan: np.ndarray) -> np.ndarray:
    """Row sums then column sums of a plan, stacked as the targets (p, q) are."""
    return np.concatenate((plan.sum(axis=1), plan.sum(axis=0)))


def _totals(per, n: int):
    """The objective of stacked penalties, summed per side, rows then columns.

    Over a stack of penalty vectors it gives one objective per vector, bit
    for bit as each vector's own: every sum runs along a contiguous row.
    """
    add = np.add.reduce
    return add(per[..., :n], axis=-1) + add(per[..., n:], axis=-1)


def _violation(rc, pq, n: int) -> float:
    """The l1 violation of stacked marginals, summed per side as ``_totals`` sums the penalties."""
    gap = np.subtract(rc, pq)
    np.abs(gap, out=gap)
    add = np.add.reduce
    return float(add(gap[:n]) + add(gap[n:]))


def _violations(rcs, pq, n: int) -> list[float]:
    """The l1 violation of each of a list of stacked marginals, in one pass, bit for bit as ``_violation``'s."""
    gap = np.subtract(np.stack(rcs), pq)
    np.abs(gap, out=gap)
    return _totals(gap, n).tolist()


# the unit roundoff of a double
_U = 2.0**-53


class _L1:
    """The l1 violation of stacked marginals, or None where one product proves it above ``tol``.

    ||g||_1 is the largest s . g over sign vectors s, so the signs s of an
    earlier gap bound the violation from below: |s . rc - s . pq| <=
    ||rc - pq||_1.  A call computes rc . s; where the bound, less ``slack``
    for the rounding of both products, is above tol (1 + 2c), the violation
    ``_violation`` gives is above tol, and the call returns None.  With N
    constraints and u the unit roundoff, N u bounds the relative rounding of
    a length-N product and of ``_violation``'s sums: slack is twice
    N u (N max rc + sum pq), which also covers the rounding of the test, and
    c = (N + 1) u.  An inf or NaN fails the test.

    Otherwise the call returns ``_violation``'s value, bit for bit, and
    takes the signs of the gaps above V / (4N), where s . gap >= V / 2; a
    gap at rounding level (the side a sinkhorn step just made exact) keeps
    its old sign.  A value at or below the test's threshold is one no signs
    can prove, as a run near its rounding floor sees at every iterate: the
    call then keeps the signs and the next call skips the test, so such a
    run pays ``_violation`` alone.  ``rc`` must be nonnegative, with ``top``
    its largest entry.
    """

    def __init__(self, pq, n: int, tol: float):
        size = pq.size
        self.pq, self.n, self.cut = pq, n, 4.0 * size
        self.signs, self.signed_pq, self.armed = np.zeros(size), 0.0, False
        # the test is slope * top + floor < |rc . s - s . pq| < inf
        self.slope = 2.0 * size * size * _U
        self.floor = 2.0 * size * _U * float(np.add.reduce(pq)) + tol * (1.0 + 2.0 * (size + 1) * _U)

    def __call__(self, rc, top) -> float | None:
        threshold = self.slope * top + self.floor
        if self.armed and threshold < abs(float(rc.dot(self.signs)) - self.signed_pq) < np.inf:
            return None
        violation = _violation(rc, self.pq, self.n)
        self.armed = not violation <= threshold  # a NaN keeps the test
        if self.armed:
            gap = np.subtract(rc, self.pq)
            np.copyto(self.signs, np.sign(gap), where=np.abs(gap) > violation / self.cut)
            self.signed_pq = float(self.signs.dot(self.pq))
        return violation


def _objective(rc, pq, n: int) -> float:
    """The objective of stacked marginals: ``_totals`` of their KL penalties."""
    return float(_totals(kl_terms(rc, pq), n))


def _objectives(rcs, pq, n: int) -> list[float]:
    """The objective of each of a list of stacked marginals, in one ``kl_terms`` call."""
    return _totals(kl_terms(np.stack(rcs), pq), n).tolist()


def marginal_violation(problem: OTProblem, plan) -> float:
    """l1 marginal violation ||X 1 - p||_1 + ||X^T 1 - q||_1."""
    plan = np.atleast_2d(np.asarray(plan, dtype=np.float64))
    if plan.shape != problem.shape:
        raise ValueError(f"plan shape {plan.shape} does not match cost {problem.shape}")
    return _violation(_marginals(plan), np.concatenate((problem.p, problem.q)), problem.shape[0])


def as_constraint_system(problem: OTProblem) -> ConstraintSystem:
    """Marginal constraints as a 2-block system over vec(X), row-major.

    Block 0 holds the N row-sum constraints (targets p), block 1 the M
    column-sum constraints (targets q); supports within each block are
    disjoint by construction.
    """
    n, m = problem.shape
    row = np.repeat(np.arange(n + m), [m] * n + [n] * m)
    col = np.concatenate((np.arange(n * m), np.arange(n * m).reshape(n, m).T.ravel()))
    b = np.concatenate((problem.p, problem.q))
    blocks = [list(range(n)), list(range(n, n + m))]
    return ConstraintSystem(row, col, np.ones(2 * n * m), b, n * m, blocks)


def round_to_feasible(problem: OTProblem, plan) -> np.ndarray:
    """Round a finite nonnegative plan onto the marginal polytope.

    Rows are scaled down to at most p, columns to at most q, and the missing
    mass is restored by a rank-one correction, so the output has exact
    marginals and stays nonnegative; a row or column that sums to zero gets
    all its mass from the correction.  The l1 size of the adjustment is on
    the order of the input's marginal violation.
    """
    plan = np.atleast_2d(np.asarray(plan, dtype=np.float64))
    if plan.shape != problem.shape:
        raise ValueError(f"plan shape {plan.shape} does not match cost {problem.shape}")
    if not np.all(np.isfinite(plan)):
        raise ValueError("plan entries must be finite")
    if np.any(plan < 0.0):
        raise ValueError("plan entries must be nonnegative")
    p, q = problem.p, problem.q
    x = plan * _shrink(p, plan.sum(axis=1))[:, None]
    x = x * _shrink(q, x.sum(axis=0))[None, :]
    err_p = np.maximum(p - x.sum(axis=1), 0.0)
    err_q = np.maximum(q - x.sum(axis=0), 0.0)
    total = err_p.sum()
    if total > 0.0:
        x = x + np.outer(err_p, err_q) / total
    return x


def _shrink(target: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """min(1, target / sums), and 1 where a sum is 0 (that row or column is all 0)."""
    return np.divide(target, sums, out=np.ones_like(target), where=sums > target)

"""Solver family for KL penalty objectives and entropic transport.

Five methods share one telemetry and stopping contract:

* ``solve_smd``: incremental mirror descent on the penalty objective of a
  constraint system, one block per iteration (cyclic, uniform or greedy
  block choice).  With stepsize 1 and 0/1 rows each step is exactly the KL
  projection onto its block.
* ``sinkhorn``: alternating row/column scaling in potential (u, v) form,
  all marginals through log-sum-exp, equivalent to ``solve_smd`` with
  cyclic sampling and stepsize 1 on the marginal constraint system.
* ``greenkhorn``: same scaling updates, but each iteration picks the single
  row or column constraint with the largest KL penalty.
* ``pinkhorn``: full-gradient mirror descent on the sum of row and column
  penalties, stepsize 1/2 by default (the objective is 2-relatively smooth).
* ``acc_pinkhorn``: accelerated Bregman proximal gradient with backtracking
  on the local smoothness constant and function-value restart.

The contract lives in one driver, ``_iterate``: it alone builds the trace,
applies the stopping rule and the trace cadence, calls the callback, and
ends a run ``numeric_failure`` at the last valid iterate when a step would
leave the domain.  Each method supplies only its step and its
(objective, violation) measurement; ``sinkhorn`` and ``pinkhorn`` also share
one log-domain potentials state.  Stopping is always on the l1 constraint
violation; the objective is logged but never used to stop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .kernel import as_positive_vector, kl_terms, log_sum_exp
from .otx import (
    _EXP_OVERFLOW,
    OTProblem,
    Potentials,
    _objective_from_marginals,
    as_constraint_system,
    gibbs_kernel,
)
from .penalty import ConstraintSystem

__all__ = [
    "METHODS",
    "SAMPLINGS",
    "SolverConfig",
    "TraceEntry",
    "SolveReport",
    "stop_check",
    "smd_step",
    "solve_smd",
    "sinkhorn",
    "greenkhorn",
    "pinkhorn",
    "acc_pinkhorn",
    "solve",
]

METHODS = ("sinkhorn", "greenkhorn", "pinkhorn", "acc_pinkhorn", "smd")
SAMPLINGS = ("cyclic", "uniform", "greedy")

# trace keeps every iteration up to this point, then every tenth and the last
_DENSE_TRACE_LIMIT = 1000


@dataclass(frozen=True)
class SolverConfig:
    """Method selection, stepsize, sampling, and stopping parameters.

    ``eta=None`` picks the method default: 1 for smd (and implicitly for
    sinkhorn/greenkhorn, which are stepsize-1 methods by construction) and
    1/2 for pinkhorn; for acc_pinkhorn it seeds the line search.  ``seed``
    only matters for uniform sampling.
    """

    method: str = "sinkhorn"
    eta: float | None = None
    sampling: str = "cyclic"
    tol: float = 1e-8
    max_iter: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.sampling not in SAMPLINGS:
            raise ValueError(
                f"unknown sampling {self.sampling!r}; expected one of {SAMPLINGS}"
            )
        if self.eta is not None and not self.eta > 0.0:
            raise ValueError("eta must be positive (or None for the method default)")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    objective: float
    violation_l1: float
    time_ms: float


@dataclass
class SolveReport:
    """Final iterate plus per-iteration telemetry and the stop reason."""

    final_iterate: np.ndarray
    iterations: int
    stop_reason: str
    trace: list[TraceEntry]
    potentials: Potentials | None = None
    selected: list[int] | None = None


def stop_check(trace, cfg: SolverConfig) -> str | None:
    """Stopping decision from the last trace entry: converged, max_iter, or None."""
    last = trace[-1]
    if last.violation_l1 <= cfg.tol:
        return "converged"
    if last.iteration >= cfg.max_iter:
        return "max_iter"
    return None


def smd_step(system: ConstraintSystem, x, block: int, eta: float) -> np.ndarray:
    """One mirror step on the summed penalty of a block.

    Equals grad_conjugate(grad_mirror(x) - eta * sum of block gradients);
    for eta 1 and 0/1 rows this is the exact KL projection onto each row of
    the block.
    """
    x = as_positive_vector(x)
    if x.size != system.dimension:
        raise ValueError(f"iterate has length {x.size}, expected {system.dimension}")
    if not 0 <= block < system.n_blocks:
        raise IndexError(f"block {block} out of range for {system.n_blocks} blocks")
    eta = float(eta)
    if not np.isfinite(eta) or eta < 0.0:
        raise ValueError("eta must be finite and >= 0")
    s = system.dots(x)
    if np.any(s[system.blocks[block]] <= 0.0):
        raise ValueError("a block constraint has a nonpositive inner product")
    z = system.block_update(x, s, block, eta)
    if not np.all(np.isfinite(z)):
        raise OverflowError("mirror step overflowed")
    return z


def _iterate(cfg: SolverConfig, callback, measure, step, current) -> dict:
    """The iteration loop every method runs; returns the report's run fields.

    ``measure()`` gives (objective, l1 violation) at the current iterate,
    ``step(k)`` moves to iterate k, ``current()`` is what the callback gets.
    A step that would leave the domain returns False without changing the
    iterate, and the run ends ``numeric_failure`` at that last valid iterate.
    """
    t0 = time.perf_counter()

    def entry(k: int) -> TraceEntry:
        objective, violation = measure()
        return TraceEntry(k, objective, violation, (time.perf_counter() - t0) * 1e3)

    last = entry(0)
    trace = [last]
    if callback is not None:
        callback(0, current())
    reason = stop_check(trace, cfg)
    k = 0
    while reason is None:
        if not step(k + 1):
            reason = "numeric_failure"
            break
        k += 1
        last = entry(k)
        reason = stop_check([last], cfg)
        if k <= _DENSE_TRACE_LIMIT or k % 10 == 0:
            trace.append(last)
        if callback is not None:
            callback(k, current())
    if trace[-1] is not last:  # the last iterate's entry is kept whatever the cadence
        trace.append(last)
    return {"iterations": k, "stop_reason": reason, "trace": trace}


def solve_smd(system: ConstraintSystem, x0, cfg: SolverConfig, callback=None) -> SolveReport:
    """Incremental mirror descent over blocks until the violation meets tol.

    Block choice per ``cfg.sampling``: round-robin, seeded uniform, or
    greedy (largest block penalty sum, ties to the lowest index).  On an
    overflow or domain breach the last valid iterate is returned with stop
    reason ``numeric_failure``.
    """
    x = as_positive_vector(x0)
    if x.size != system.dimension:
        raise ValueError(f"x0 has length {x.size}, expected {system.dimension}")
    eta = 1.0 if cfg.eta is None else float(cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    s = system.dots(x)
    if np.any(s <= 0.0):
        raise ValueError("x0 gives a nonpositive inner product for some constraint")
    per = None  # per-row penalties at x, set by measure()
    selected: list[int] = []

    def measure() -> tuple[float, float]:
        nonlocal per
        per = kl_terms(s, system.b)
        return float(per.sum()), float(np.abs(s - system.b).sum())

    def step(k: int) -> bool:
        nonlocal x, s
        if cfg.sampling == "cyclic":
            block = (k - 1) % system.n_blocks
        elif cfg.sampling == "uniform":
            block = int(rng.integers(system.n_blocks))
        else:
            block = int(np.argmax(system.block_sums(per)))
        z = system.block_update(x, s, block, eta)
        if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
            return False
        s_new = system.dots(z)
        if np.any(s_new <= 0.0):
            return False
        x, s = z, s_new
        selected.append(block)
        return True

    run = _iterate(cfg, callback, measure, step, lambda: x)
    return SolveReport(final_iterate=x, **run, selected=selected or None)


def _ot_measure(r, c, p, q) -> tuple[float, float]:
    """(objective, l1 violation) of a plan with row sums r and column sums c."""
    return _objective_from_marginals(r, c, p, q), float(np.abs(r - p).sum() + np.abs(c - q).sum())


class _LogScaling:
    """Potentials (u, v) of an OT problem with their log-sum-exps cached.

    ``lse_rows`` is the row LSE of logK + v and ``lse_cols`` the column LSE
    of logK + u, so the log-marginals are u + lse_rows and v + lse_cols.
    ``set_u`` recomputes only ``lse_cols`` and ``set_v`` only ``lse_rows``.
    """

    def __init__(self, problem: OTProblem):
        self.logK = gibbs_kernel(problem)
        self.p, self.q = problem.p, problem.q
        self.log_p, self.log_q = np.log(self.p), np.log(self.q)
        self.u = np.zeros(problem.shape[0])
        self.v = np.zeros(problem.shape[1])
        self.lse_rows = log_sum_exp(self.logK + self.v[None, :], axis=1)
        self.lse_cols = log_sum_exp(self.logK + self.u[:, None], axis=0)

    def set_u(self, u: np.ndarray) -> None:
        self.u = u
        self.lse_cols = log_sum_exp(self.logK + u[:, None], axis=0)

    def set_v(self, v: np.ndarray) -> None:
        self.v = v
        self.lse_rows = log_sum_exp(self.logK + v[None, :], axis=1)

    def measure(self) -> tuple[float, float]:
        r = np.exp(self.u + self.lse_rows)
        c = np.exp(self.v + self.lse_cols)
        return _ot_measure(r, c, self.p, self.q)

    def plan(self) -> np.ndarray:
        return np.exp(self.u[:, None] + self.logK + self.v[None, :])

    def report(self, run: dict) -> SolveReport:
        return SolveReport(final_iterate=self.plan(), **run, potentials=Potentials(self.u, self.v))


def sinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Log-domain matrix scaling in potential (u, v) form.

    Odd-numbered iterations rescale rows (u update), even-numbered ones
    rescale columns, so each iteration matches one block of the cyclic
    mirror-descent view.  Only the two potential vectors are kept; row and
    column sums go through log-sum-exp, one per iteration since each update
    reuses the LSE the previous one left, and the dense plan is materialized
    once at the end (and for callbacks).
    """
    st = _LogScaling(problem)

    def step(k: int) -> bool:
        if k % 2:
            st.set_u(st.log_p - st.lse_rows)
        else:
            st.set_v(st.log_q - st.lse_cols)
        return True

    return st.report(_iterate(cfg, callback, st.measure, step, st.plan))


def greenkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Greedy single-constraint scaling: fix the worst row or column first.

    The iterate is the potentials (u, v) plus the row and column sums r, c
    of their plan, updated in O(n + m) per iteration.  Each step picks the
    largest of the row and column KL penalties that the last measurement
    computed (ties to the lowest index, rows before columns) and applies
    the stepsize-1 update to that one constraint; a column update is a row
    update of the transposed problem.  r and c are taken from one
    materialized plan at the start, every 500 iterations (to cap drift) and
    whenever a sum reaches zero.
    """
    logK = gibbs_kernel(problem)
    p, q = problem.p, problem.q
    n = p.size
    u, v = np.zeros(n), np.zeros(q.size)
    # rows, then columns as the rows of the transposed problem:
    # (log kernel, own potential, other potential, log targets)
    sides = ((logK, u, v, np.log(p)), (logK.T, v, u, np.log(q)))
    sums = [None, None]  # r and c
    worst = 0  # row-then-column index of the largest penalty at (u, v), set by measure()
    selected: list[int] = []

    def plan() -> np.ndarray:
        return np.exp(u[:, None] + logK + v[None, :])

    def refresh() -> None:
        x = plan()
        sums[:] = x.sum(axis=1), x.sum(axis=0)

    def measure() -> tuple[float, float]:
        nonlocal worst
        r, c = sums
        fr, fc = kl_terms(r, p), kl_terms(c, q)
        worst = int(np.argmax(np.concatenate((fr, fc))))
        return float(np.sum(fr) + np.sum(fc)), float(np.abs(r - p).sum() + np.abs(c - q).sum())

    def step(k: int) -> bool:
        i = worst
        side = int(i >= n)
        at = i - side * n
        K, pot, other, log_t = sides[side]
        last = pot[at]
        old = np.exp(last + K[at] + other)
        pot[at] = log_t[at] - log_sum_exp(K[at] + other)
        new = np.exp(pot[at] + K[at] + other)
        sums[1 - side] = sums[1 - side] + (new - old)
        sums[side][at] = new.sum()
        if k % 500 == 0 or any(np.any(s <= 0.0) for s in sums):
            refresh()
        if not all(np.all(np.isfinite(s) & (s > 0.0)) for s in sums):
            pot[at] = last  # the iterate is (u, v); r and c are not read again
            return False
        selected.append(i)
        return True

    refresh()
    run = _iterate(cfg, callback, measure, step, plan)
    return SolveReport(
        final_iterate=plan(), **run, potentials=Potentials(u, v), selected=selected or None
    )


def pinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Full-gradient mirror descent on the row-plus-column penalty objective.

    The multiplicative update X <- X * (p/r)^eta outer (q/c)^eta acts on the
    potentials, so like sinkhorn this runs entirely in log domain.  The
    default eta of 1/2 makes the objective non-increasing (the penalty is
    2-relatively smooth: one unit per constraint block).  A step whose
    potentials or marginals are not finite ends the run ``numeric_failure``.
    """
    st = _LogScaling(problem)
    eta = 0.5 if cfg.eta is None else float(cfg.eta)

    def step(k: int) -> bool:
        with np.errstate(over="ignore"):
            u = st.u + eta * (st.log_p - (st.u + st.lse_rows))
            v = st.v + eta * (st.log_q - (st.v + st.lse_cols))
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            return False
        last = st.u, st.v, st.lse_rows, st.lse_cols
        st.set_u(u)
        st.set_v(v)
        # exp of a log-marginal is finite exactly up to _EXP_OVERFLOW
        if (u + st.lse_rows).max() <= _EXP_OVERFLOW and (v + st.lse_cols).max() <= _EXP_OVERFLOW:
            return True
        st.u, st.v, st.lse_rows, st.lse_cols = last
        return False

    return st.report(_iterate(cfg, callback, st.measure, step, st.plan))


def acc_pinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Accelerated Bregman proximal gradient on the penalty objective.

    Coupled sequences (y, z, x): y extrapolates between x and z, z takes a
    mirror step on grad f(y) scaled by theta * L, and x is the matching
    convex combination.  theta follows the accelerated recursion
    (1 - theta') / theta'^2 = 1 / theta^2.  L is adapted by backtracking:
    doubled until the local upper bound

        f(x_new) <= f(y) + <grad f(y), x_new - y> + L * KL(x_new, y)

    holds, halved again after success.  When the objective would increase,
    theta resets to 1 and the step is retaken from x (function-value
    restart), which makes the recorded objective non-increasing.
    """
    x = np.exp(gibbs_kernel(problem))
    p, q = problem.p, problem.q
    z = x.copy()
    theta = 1.0
    L = 2.0 if cfg.eta is None else 1.0 / float(cfg.eta)
    l_floor = 1e-6
    max_doublings = 80

    def objective(mat: np.ndarray) -> float:
        return _objective_from_marginals(mat.sum(axis=1), mat.sum(axis=0), p, q)

    def try_step(xc, zc, th, lc):
        """Backtracked accelerated step; returns (x_new, z_new, L, f_new) or None."""
        y = (1.0 - th) * xc + th * zc
        ry, cy = y.sum(axis=1), y.sum(axis=0)
        fy = _objective_from_marginals(ry, cy, p, q)
        g = np.log(ry / p)[:, None] + np.log(cy / q)[None, :]
        for _ in range(max_doublings):
            with np.errstate(over="ignore", under="ignore"):
                z_new = zc * np.exp(-g / (th * lc))
            if not np.all(np.isfinite(z_new)) or np.any(z_new <= 0.0):
                lc *= 2.0
                continue
            x_new = (1.0 - th) * xc + th * z_new
            f_new = objective(x_new)
            bound = fy + float(np.sum(g * (x_new - y))) + lc * float(np.sum(kl_terms(x_new, y)))
            # slack is relative to the objective scale: an absolute slack
            # would let a too-small L pass once f is tiny, and the collapsed
            # L then makes every later step overshoot
            if f_new <= bound + 1e-9 * max(fy, f_new):
                return x_new, z_new, lc, f_new
            lc *= 2.0
        return None

    fx = objective(x)

    def measure() -> tuple[float, float]:
        return fx, float(np.abs(x.sum(axis=1) - p).sum() + np.abs(x.sum(axis=0) - q).sum())

    def step(k: int) -> bool:
        nonlocal x, z, fx, theta, L
        nxt = try_step(x, z, theta, L)
        if nxt is None:
            return False
        x_new, z_new, L, f_new = nxt
        if f_new > fx:
            theta, z = 1.0, x.copy()
            nxt = try_step(x, z, theta, L)
            if nxt is None:
                return False
            x_new, z_new, L, f_new = nxt
            if f_new > fx:
                # numerical floor: hold x, keep the z progress
                x_new, f_new = x, fx
        x, z, fx = x_new, z_new, f_new
        L = max(L / 2.0, l_floor)
        theta = theta * (np.sqrt(theta * theta + 4.0) - theta) / 2.0
        return True

    run = _iterate(cfg, callback, measure, step, lambda: x.copy())
    return SolveReport(final_iterate=x, **run)


def solve(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Dispatch on ``cfg.method``; ``smd`` runs on the marginal constraint system.

    When exp(-C/gamma) underflows, ``smd`` has no positive start: the run
    ends at iteration 0 at that kernel, ``converged`` if it already meets
    tol and ``numeric_failure`` otherwise.
    """
    if cfg.method == "sinkhorn":
        return sinkhorn(problem, cfg, callback)
    if cfg.method == "greenkhorn":
        return greenkhorn(problem, cfg, callback)
    if cfg.method == "pinkhorn":
        return pinkhorn(problem, cfg, callback)
    if cfg.method == "acc_pinkhorn":
        return acc_pinkhorn(problem, cfg, callback)
    x0 = np.exp(gibbs_kernel(problem))
    if not np.all(x0 > 0.0):
        # an underflowed entry is outside the entropy domain, so every step fails
        measure = lambda: _ot_measure(x0.sum(axis=1), x0.sum(axis=0), problem.p, problem.q)
        run = _iterate(cfg, callback, measure, lambda k: False, lambda: x0)
        return SolveReport(final_iterate=x0, **run)
    system = as_constraint_system(problem)
    cb = None
    if callback is not None:
        cb = lambda k, vec: callback(k, vec.reshape(problem.shape))
    report = solve_smd(system, x0.reshape(-1), cfg, cb)
    report.final_iterate = report.final_iterate.reshape(problem.shape)
    return report

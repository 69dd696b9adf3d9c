"""Solver family for KL penalty objectives and entropic transport.

Five methods share one telemetry and stopping contract:

* ``solve_smd``: incremental mirror descent on the penalty objective of a
  constraint system, one block per iteration (cyclic, uniform or greedy
  block choice).  With stepsize 1 and 0/1 rows each step is exactly the KL
  projection onto its block.
* ``sinkhorn``: alternating row/column scaling, equivalent to ``solve_smd``
  with cyclic sampling and stepsize 1 on the marginal constraint system.
* ``greenkhorn``: same scaling updates, but each iteration picks the single
  row or column constraint with the largest KL penalty.
* ``pinkhorn``: full-gradient mirror descent on the sum of row and column
  penalties, stepsize 1/2 by default (the objective is 2-relatively smooth).
* ``acc_pinkhorn``: accelerated Bregman proximal gradient with backtracking
  on the local smoothness constant and function-value restart.

The contract lives in one driver, ``_iterate``: it alone builds the trace,
applies the stopping rule and the trace cadence, calls the callback, and
ends a run ``numeric_failure`` at the last valid iterate when a step would
leave the domain.  Each method supplies only its step and its measurement:
the l1 violation plus a snapshot whose objective the driver evaluates
later, in one batched call per chunk of kept trace entries and bit for bit
as a per-iteration evaluation would give it.  The snapshot is the constraint
values where the step never reads the penalties (``sinkhorn``, ``pinkhorn``,
cyclic and uniform ``solve_smd``), the per-constraint penalties the greedy
rules select from (``greenkhorn``, greedy ``solve_smd``), and the objective
itself for ``acc_pinkhorn``, whose step compares them.  Each public solve
runs with numpy's floating-point errors ignored, and each step tells from the
values it computes whether it left the domain.  ``sinkhorn``, ``greenkhorn`` and
``pinkhorn`` also share one scaling state, ``_Scaling``: each of their steps
multiplies scalings by (target / marginal)^eta, a matrix-vector product on a
stabilized kernel whose scalings are absorbed into log-domain potentials
when they grow, with log-sum-exp kept for kernels that underflow.  Stopping
is always on the l1 constraint violation; the objective is logged but never
used to stop.
"""

from __future__ import annotations

import functools
import inspect
import operator
import time
from dataclasses import dataclass

import numpy as np

from .kernel import as_positive_vector, kl_terms, log_sum_exp
from .otx import _EXP_OVERFLOW, OTProblem, Potentials, _marginals, _objective, _objectives, _penalties, _totals
from .otx import _violation, as_constraint_system, gibbs_kernel
from .penalty import ConstraintSystem

__all__ = [
    "METHODS",
    "SAMPLINGS",
    "SolverConfig",
    "TraceEntry",
    "SolveReport",
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
# deferred trace objectives are evaluated this many kept entries at a time,
# which bounds the snapshots a run holds
_OBJECTIVE_CHUNK = 128
# scalings beyond this factor either way are absorbed into the potentials;
# between absorptions K~ is the plan divided by at most its square, so the
# entries of K~ that carry mass stay normal doubles
_SCALING_RANGE = 1e20
# the smallest positive double, which stands in for an underflowed scaling's log
_TINY = 5e-324
# np.geterr() inside a solve
_IGNORE_ALL = {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}


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
        # an infinite step would end every run at iteration 0
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite (or None for the method default)")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not hasattr(self.max_iter, "__index__"):  # no float, NaN or str
            raise ValueError(f"max_iter must be an integer, not {self.max_iter!r}")
        if operator.index(self.max_iter) < 1:
            raise ValueError("max_iter must be >= 1")
        if not hasattr(self.seed, "__index__") or operator.index(self.seed) < 0:  # no float or str
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


def _fp_ignored(solver):
    """Run ``solver`` with numpy's floating-point errors ignored, its callback in the caller's state.

    A step tells from the values it computes whether it left the domain, so
    an overflow, underflow or invalid operation inside a solve is neither a
    warning nor an exception, whatever ``np.errstate`` the caller set; the
    state is set once per solve, not per step.  A solve called from inside
    another one finds it set already.
    """
    signature = inspect.signature(solver)

    @functools.wraps(solver)
    def run(*args, **kwargs):
        caller = np.geterr()
        if caller == _IGNORE_ALL:
            return solver(*args, **kwargs)
        call = signature.bind(*args, **kwargs)
        callback = call.arguments.get("callback")
        if callback is not None:

            def in_caller_state(k, x):
                with np.errstate(**caller):
                    callback(k, x)

            call.arguments["callback"] = in_caller_state
        with np.errstate(all="ignore"):
            return solver(*call.args, **call.kwargs)

    return run


def _iterate(cfg: SolverConfig, callback, measure, step, current, objectives) -> dict:
    """The iteration loop every method runs; returns the report's run fields.

    ``measure()`` gives (snapshot, l1 violation) at the current iterate: the
    snapshot is a value no later step writes, and ``objectives(snapshots)``
    gives the objectives of a list of them in one call, made once per
    ``_OBJECTIVE_CHUNK`` kept trace entries and once at the end; ``time_ms``
    leaves that time out.  The run stops ``converged`` once the violation
    is at most ``cfg.tol``, else ``max_iter`` at ``cfg.max_iter``.
    ``step(k)`` moves to iterate k, ``current()`` is what the callback gets
    after every iterate.  A step that would leave the domain returns False
    without changing the iterate, and the run ends ``numeric_failure`` at
    that last valid iterate.
    """
    t0 = time.perf_counter()
    trace: list[TraceEntry] = []
    kept = []  # (iteration, snapshot, violation, ms) of kept entries not yet in the trace

    def flush() -> None:
        nonlocal t0
        t = time.perf_counter()
        values = objectives([e[1] for e in kept])
        trace.extend(TraceEntry(k, obj, viol, ms) for (k, _, viol, ms), obj in zip(kept, values))
        kept.clear()
        t0 += time.perf_counter() - t

    def entry(k: int) -> tuple:
        value, violation = measure()
        return k, value, violation, (time.perf_counter() - t0) * 1e3

    k, keep = 0, True
    last = entry(0)
    kept.append(last)
    if callback is not None:
        callback(0, current())
    while True:
        if last[2] <= cfg.tol:
            reason = "converged"
            break
        if k >= cfg.max_iter:
            reason = "max_iter"
            break
        if not step(k + 1):
            reason = "numeric_failure"
            break
        k += 1
        last = entry(k)
        keep = k <= _DENSE_TRACE_LIMIT or k % 10 == 0
        if keep:
            kept.append(last)
            if len(kept) == _OBJECTIVE_CHUNK:
                flush()
        if callback is not None:
            callback(k, current())
    if not keep:  # the last iterate's entry is kept whatever the cadence
        kept.append(last)
    if kept:
        flush()
    return {"iterations": k, "stop_reason": reason, "trace": trace}


@_fp_ignored
def solve_smd(system: ConstraintSystem, x0, cfg: SolverConfig, callback=None) -> SolveReport:
    """Incremental mirror descent over blocks until the violation meets tol.

    Block choice per ``cfg.sampling``: round-robin, seeded uniform, or
    greedy (largest block penalty sum, ties to the lowest index).  On an
    overflow or domain breach the last valid iterate is returned with stop
    reason ``numeric_failure``.
    """
    x = as_positive_vector(x0).copy()  # the iterate is updated in place, never the caller's x0
    if x.size != system.dimension:
        raise ValueError(f"x0 has length {x.size}, expected {system.dimension}")
    eta = 1.0 if cfg.eta is None else float(cfg.eta)
    rng = np.random.default_rng(cfg.seed)
    # one scratch buffer and a second iterate for the whole run: a step
    # writes its candidate into z and the two swap when it is accepted
    work, z = system._workspace(), np.empty_like(x)
    s = system.dots(x)
    if np.any(s <= 0.0):
        raise ValueError("x0 gives a nonpositive inner product for some constraint")
    greedy = cfg.sampling == "greedy"
    per = None  # per-row penalties at x, set by measure() for greedy selection
    gap = np.empty_like(s)
    selected: list[int] = []

    def measure() -> tuple:
        """(per, violation) for greedy sampling, else (s, violation); both are fresh arrays."""
        nonlocal per
        np.subtract(s, system.b, out=gap)
        np.abs(gap, out=gap)
        if greedy:
            per = kl_terms(s, system.b)
        return per if greedy else s, float(np.add.reduce(gap))

    def objectives(snapshots) -> list[float]:
        stacked = np.stack(snapshots)
        return np.add.reduce(stacked if greedy else kl_terms(stacked, system.b), axis=1).tolist()

    def step(k: int) -> bool:
        nonlocal x, z, s
        if cfg.sampling == "cyclic":
            block = (k - 1) % system.n_blocks
        elif cfg.sampling == "uniform":
            block = int(rng.integers(system.n_blocks))
        else:
            block = int(system.block_sums(per).argmax())
        system.block_update(x, s, block, eta, z, work)
        if not (0.0 < z.min() and z.max() < np.inf):
            return False
        s_new = system.dots(z)
        if not s_new.min() > 0.0:
            return False
        x, z, s = z, x, s_new
        selected.append(block)
        return True

    run = _iterate(cfg, callback, measure, step, lambda: x.copy(), objectives)
    return SolveReport(final_iterate=x, **run, selected=selected or None)


class _Scaling:
    """The plan diag(a) K~ diag(b) of an OT problem, K~ = exp(u + logK + v).

    One state for sinkhorn, greenkhorn and pinkhorn, and the start of all
    five methods: K~ = exp(-C/gamma), divided by its largest entry (u = -max
    logK) where an entry or a row or column sum could overflow, since a
    constant added to C leaves the entropic plan as it is.  The potentials
    are (u + log a, v + log b): (u, v) are absorbed into K~, and the
    scalings (a, b) carry what changed since, so a step is a matrix-vector
    product on K~ and no exp.  Per-constraint vectors are stacked, rows
    then columns: ``w`` = (u, v), ``ab`` = (a, b), ``kab`` = (K~ b, K~^T a),
    the marginals ``rc`` = ab * kab and the targets ``pq`` = (p, q).

    A step that takes a scaling out of [1/_SCALING_RANGE, _SCALING_RANGE]
    absorbs the scalings into (u, v) and rebuilds K~.  A step that meets a
    row or column of K~ summing to 0 (an underflowed kernel) is taken in log
    domain through log-sum-exp, then absorbed.
    """

    def __init__(self, problem: OTProblem):
        self.logK = gibbs_kernel(problem)
        self.n = problem.shape[0]
        self.pq = np.concatenate((problem.p, problem.q))
        self.rc = None
        top = self.logK.max()
        u = -top if top + np.log(max(problem.shape)) > _EXP_OVERFLOW else 0.0
        self._absorb(np.repeat([u, 0.0], problem.shape))

    def _commit(self, w, K, ab, kab) -> bool:
        """Make this the state unless the plan's marginals overflow or all vanish."""
        rc = ab * kab
        # the start is always committed, even an underflowed kernel's zero marginals
        if self.rc is not None and not 0.0 < rc.max() < np.inf:
            return False
        self.w, self.K, self.ab, self.kab, self.rc = w, K, ab, kab, rc
        return True

    def _absorb(self, w) -> bool:
        """Make ``w`` the potentials and 1 the scalings: K~ is rebuilt."""
        if not np.isfinite(w).all():
            return False
        n = self.n
        K = np.exp(w[:n, None] + self.logK + w[None, n:])
        return self._commit(w, K, np.ones(w.size), _marginals(K))

    def refresh(self) -> None:
        """Recompute K~ b and K~^T a from K~, dropping incremental drift."""
        n = self.n
        self._commit(self.w, self.K, self.ab, np.concatenate((self.K @ self.ab[n:], self.K.T @ self.ab[:n])))

    def scale(self, at, eta: float = 1.0) -> bool:
        """Multiply the scalings at ``at`` by (target / marginal)^eta.

        ``at`` is a slice of the stacked (a, b), or one index for
        greenkhorn, whose other side then moves by one row or column of K~
        in O(n + m).  eta 1 makes the marginals at ``at`` exact.  Returns
        False, with the state unchanged, when the plan would leave the
        domain.
        """
        n = self.n
        single = not isinstance(at, slice)
        if eta == 1.0:
            new = self.pq[at] / self.kab[at]
        else:
            new = self.ab[at] * (self.pq[at] / self.rc[at]) ** eta
        lo, hi = (new, new) if single else (new.min(), new.max())
        if not (1.0 / _SCALING_RANGE <= lo and hi <= _SCALING_RANGE):
            if 0.0 < lo and hi < np.inf:
                ab = self.ab.copy()
                ab[at] = new
                return self._absorb(self.w + np.log(ab))
            return self._log_step(at, eta)
        ab, kab = self.ab.copy(), self.kab.copy()
        ab[at] = new
        if not single:
            if at.start < n:
                np.matmul(self.K.T, ab[:n], out=kab[n:])
            if at.stop > n:
                np.matmul(self.K, ab[n:], out=kab[:n])
        elif at < n:
            kab[n:] += (new - self.ab[at]) * self.K[at]
        else:
            kab[:n] += (new - self.ab[at]) * self.K[:, at - n]
        return self._commit(self.w, self.K, ab, kab)

    def _log_step(self, at, eta: float) -> bool:
        """``scale`` in log domain: the same step on the full potentials."""
        n = self.n
        w = self.w + np.log(self.ab)
        lse = (log_sum_exp(self.logK + w[None, n:], axis=1), log_sum_exp(self.logK + w[:n, None], axis=0))
        log_rc = w + np.concatenate(lse)
        w[at] += eta * (np.log(self.pq[at]) - log_rc[at])
        return self._absorb(w)

    def snapshot(self) -> tuple[np.ndarray, float]:
        """(marginals, l1 violation) of the plan; a commit never writes into the marginals."""
        return self.rc, _violation(self.rc, self.pq, self.n)

    def objectives(self, rcs) -> list[float]:
        """The objectives of snapshots' marginals, bit for bit as each one's own."""
        return _objectives(rcs, self.pq, self.n)

    def potentials(self) -> Potentials:
        w = self.w + np.log(self.ab)
        return Potentials(w[: self.n], w[self.n :])

    def plan(self) -> np.ndarray:
        """The dense plan, from the potentials as ``plan_from_potentials`` builds it."""
        pot = self.potentials()
        return np.exp(pot.u[:, None] + self.logK + pot.v[None, :])

    def report(self, run: dict, selected: list[int] | None = None) -> SolveReport:
        return SolveReport(
            final_iterate=self.plan(), **run, potentials=self.potentials(), selected=selected or None
        )


@_fp_ignored
def sinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Matrix scaling: a = p / (K~ b) and b = q / (K~^T a) in turn.

    Odd-numbered iterations rescale rows, even-numbered ones columns, so
    each iteration matches one block of the cyclic mirror-descent view.
    Each costs one matrix-vector product on the stabilized kernel of
    ``_Scaling``; the potentials (u + log a, v + log b) are reported, and
    the dense plan is materialized from them once at the end (and for
    callbacks).
    """
    st = _Scaling(problem)
    rows, cols = slice(0, st.n), slice(st.n, st.pq.size)
    run = _iterate(cfg, callback, st.snapshot, lambda k: st.scale(rows if k % 2 else cols), st.plan, st.objectives)
    return st.report(run)


@_fp_ignored
def greenkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Greedy single-constraint scaling: fix the worst row or column first.

    Each step picks the largest of the row and column KL penalties that the
    last measurement computed (ties to the lowest index, rows before
    columns) and makes that one marginal exact: one entry of a (or b)
    changes, and K~^T a (or K~ b) moves by one row (column) of K~, in
    O(n + m) with no exp.  Both products are recomputed from K~ every 500
    iterations, to cap drift, and whenever one turns negative.  A plan that
    measures within tol is measured again on products recomputed from K~
    before the run may stop ``converged``, so drift cannot pass for
    convergence.
    """
    st = _Scaling(problem)
    selected: list[int] = []
    per = None  # the penalties of the last measurement, which the next step selects from

    def measure() -> tuple[np.ndarray, float]:
        """(per, violation): the penalties are a fresh array and the run's snapshot."""
        nonlocal per
        per, violation = _penalties(st.rc, st.pq, st.n)
        if violation <= cfg.tol:
            st.refresh()
            per, violation = _penalties(st.rc, st.pq, st.n)
        return per, violation

    def step(k: int) -> bool:
        i = int(per.argmax())
        if not st.scale(i):
            return False
        if k % 500 == 0 or st.kab.min() < 0.0:
            st.refresh()
        selected.append(i)
        return True

    def objectives(pers) -> list[float]:
        return _totals(np.stack(pers), st.n).tolist()

    return st.report(_iterate(cfg, callback, measure, step, st.plan, objectives), selected)


@_fp_ignored
def pinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Full-gradient mirror descent on the row-plus-column penalty objective.

    The multiplicative update X <- X * (p/r)^eta outer (q/c)^eta is
    a <- a (p/r)^eta and b <- b (q/c)^eta on the scalings of ``_Scaling``,
    two matrix-vector products per step.  The default eta of 1/2 makes the
    objective non-increasing (the penalty is 2-relatively smooth: one unit
    per constraint block).  A step whose marginals overflow ends the run
    ``numeric_failure``.
    """
    st = _Scaling(problem)
    eta = 0.5 if cfg.eta is None else float(cfg.eta)
    both = slice(0, st.pq.size)
    return st.report(_iterate(cfg, callback, st.snapshot, lambda k: st.scale(both, eta), st.plan, st.objectives))


def _phi(f, log_f):
    """f log f - f + 1 elementwise, the KL term of f against 1, to a relative 1e-12.

    Below |log f| = 1e-3 the direct form loses 2 eps / |log f| to
    cancellation, and the Taylor series in log f stands in.
    """
    out = f * log_f
    out -= f - 1.0
    small = np.abs(log_f) < 1e-3
    if small.any():
        t = log_f[small]
        out[small] = t * t * (0.5 + t * (1.0 / 3.0 + t * (0.125 + t / 30.0)))
    return out


def _scaled(z, s) -> tuple[np.ndarray, float]:
    """(marginals of z+, KL(z+, z)) for z+ = z * outer(a, b), (a, b) = exp(s); z+ is not formed.

    The marginals are (a, b) * (z @ b, a @ z), z's products with ones bit
    for bit at s == 0.  KL(z+, z), the sum of z_ij phi(a_i b_j) with
    phi(t) = t log t - t + 1, is one product of z with five row and five
    column vectors, split per column as phi(a b) = b phi(a) + phi(b) +
    (a - 1) b log b where b <= 1 and with a and b swapped where b > 1.  No
    term then exceeds 1 + a b max(|log a|, |log b|), where one split for all
    columns cancels terms of size b log b once b >> 1 > a.  The logs are
    those of the rounded scalings, so this is the divergence of the z+ they
    make.
    """
    n, m = z.shape
    f = np.exp(s)
    log_f = np.log(np.maximum(f, _TINY))  # an underflowed scaling's terms are 0 and phi(0) = 1
    phi = _phi(f, log_f)
    a, b = f[:n], f[n:]
    rc = f * np.concatenate((z @ b, a @ z))
    # KL = sum_k rows[k] @ z @ cols[k], each pair one term of the split
    rows, cols = np.empty((5, n)), np.empty((5, m))
    rows[0], rows[2], rows[3], rows[4] = phi[:n], a, 1.0, a - 1.0
    np.multiply(a, log_f[:n], out=rows[1])
    np.minimum(b, 1.0, out=cols[0])
    np.maximum(b - 1.0, 0.0, out=cols[1])
    np.multiply(phi[n:], b > 1.0, out=cols[2])
    np.subtract(phi[n:], cols[2], out=cols[3])
    np.multiply(b, log_f[n:], out=cols[4])
    np.minimum(cols[4], 0.0, out=cols[4])
    return rc, float(np.vdot(rows, cols @ z.T))


@_fp_ignored
def acc_pinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Accelerated Bregman proximal gradient on the penalty objective.

    Coupled sequences (y, z, x): y extrapolates between x and z, z takes a
    mirror step on grad f(y) scaled by theta * L, and x is the matching
    convex combination.  grad f(y) is log(r/p) on row i plus log(c/q) on
    column j, one stacked vector ``g`` of y's row and column sums, so the
    mirror step scales the rows and columns of z by f = exp(-g / (theta L)).
    theta follows the accelerated recursion (1 - theta') / theta'^2 =
    1 / theta^2.  L is adapted by backtracking: doubled until the ABPG bound
    with exponent 2 (Hanzely, Richtarik and Xiao, arXiv:1808.03045)

        f(x_new) <= f(y) + <grad f(y), x_new - y> + theta^2 L KL(z_new, z)

    holds.  After an accepted step L is halved when neither that step nor
    the one before had to double it, a restart counting as part of its
    step: a run that passes every test still halves L on every step, but
    after a doubling L is held for two steps instead of being halved
    straight back to a value that fails.  A bound test reads marginals only
    and forms no n x m array: y's and x_new's are convex combinations of
    x's and z's, and z_new's and KL(z_new, z) come from ``_scaled``.  x and
    z are formed once per accepted step, their marginals stored as the
    products with ones that ``_scaled`` takes at f == 1, so a null step
    reproduces them bit for bit.  When the objective would increase, theta
    resets to 1 and the step is retaken from x (function-value restart),
    which makes the recorded objective non-increasing.  A violation within
    tol is measured again on the plan's own sums before the run may stop
    ``converged``.
    """
    st = _Scaling(problem)
    x = z = st.K
    n, pq = st.n, st.pq
    ones = np.ones(pq.size)
    theta = 1.0
    L = 2.0 if cfg.eta is None else 1.0 / float(cfg.eta)
    l_floor = 1e-6
    max_doublings = 80

    def sums(mat) -> np.ndarray:
        """Row then column sums of a plan, as ``_scaled`` takes them at f == 1."""
        return np.concatenate((mat @ ones[n:], ones[:n] @ mat))

    def try_step(zc, rc_zc, th, lc):
        """Backtracked accelerated step from x; returns (s, x_new's marginals, L, objective) or None."""
        rc_xpart = (1.0 - th) * rc_x
        rc_y = th * rc_zc + rc_xpart
        if not rc_y.all():
            return None  # an empty row or column: log(rc_y / pq) is -inf there
        obj_y = _objective(rc_y, pq, n)
        g = np.log(rc_y / pq)
        for _ in range(max_doublings):
            s = g / (-th * lc)
            rc_z_new, kl = _scaled(zc, s)
            # an overflowing scaling gives inf or NaN marginals, which fail here
            if rc_z_new.max() < np.inf:
                rc_new = th * rc_z_new + rc_xpart
                obj_new = _objective(rc_new, pq, n)
                bound = obj_y + float(g @ (rc_new - rc_y)) + th * th * lc * kl
                # slack is relative to the objective scale: an absolute slack
                # would let a too-small L pass once f is tiny, and the collapsed
                # L then makes every later step overshoot
                if obj_new <= bound + 1e-9 * max(obj_y, obj_new):
                    return s, rc_new, lc, obj_new
            lc *= 2.0
        return None

    rc_x = rc_z = sums(x)
    doubled = False  # whether the last accepted step had to double L
    mx = (_objective(rc_x, pq, n), _violation(rc_x, pq, n))  # x's objective and violation

    def measure() -> tuple[float, float]:
        objective, violation = mx
        if violation <= cfg.tol:  # confirm on the plan's own sums
            violation = _violation(_marginals(x), pq, n)
        return objective, violation

    def step(k: int) -> bool:
        nonlocal x, z, rc_x, rc_z, mx, theta, L, doubled
        l_start = L
        for theta, zc, rc_zc in ((theta, z, rc_z), (1.0, x, rc_x)):  # the second pass is the restart
            nxt = try_step(zc, rc_zc, theta, L)
            if nxt is None:
                return False
            s, rc_new, L, obj_new = nxt
            if obj_new <= mx[0]:
                break
        else:
            rc_new = None  # numerical floor: hold x and its objective, keep the z progress
        f = np.exp(s)
        z_new = zc * f[:n, None]
        z_new *= f[n:]
        rc_z_new = sums(z_new)
        if not rc_z_new.max() < np.inf:
            return False
        z, rc_z = z_new, rc_z_new
        if rc_new is not None:
            x_new = theta * z
            x_new += (1.0 - theta) * x
            x, rc_x, mx = x_new, sums(x_new), (obj_new, _violation(rc_new, pq, n))
        # halving after every step sends L back into a failing test about every other step
        doubled, doubled_before = L > l_start, doubled
        if not (doubled or doubled_before):
            L = max(L / 2.0, l_floor)
        theta = theta * (np.sqrt(theta * theta + 4.0) - theta) / 2.0
        return True

    run = _iterate(cfg, callback, measure, step, lambda: x.copy(), list)
    return SolveReport(final_iterate=x, **run)


@_fp_ignored
def solve(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Dispatch on ``cfg.method``; ``smd`` runs on the marginal constraint system.

    When ``_Scaling``'s start has an underflowed entry, ``smd`` has no
    positive start: the run ends at iteration 0 there, ``converged`` if it
    already meets tol and ``numeric_failure`` otherwise.
    """
    if cfg.method == "sinkhorn":
        return sinkhorn(problem, cfg, callback)
    if cfg.method == "greenkhorn":
        return greenkhorn(problem, cfg, callback)
    if cfg.method == "pinkhorn":
        return pinkhorn(problem, cfg, callback)
    if cfg.method == "acc_pinkhorn":
        return acc_pinkhorn(problem, cfg, callback)
    st = _Scaling(problem)
    if not np.all(st.K > 0.0):
        # an underflowed entry is outside the entropy domain, so every step fails
        run = _iterate(cfg, callback, st.snapshot, lambda k: False, lambda: st.K, st.objectives)
        return SolveReport(final_iterate=st.K, **run)
    cb = None if callback is None else lambda k, vec: callback(k, vec.reshape(problem.shape))
    report = solve_smd(as_constraint_system(problem), st.K.reshape(-1), cfg, cb)
    report.final_iterate = report.final_iterate.reshape(problem.shape)
    return report

"""Solver family for KL penalty objectives and entropic transport.

Five methods share one telemetry and stopping contract:

* ``solve_smd``: incremental mirror descent on the penalty objective of a
  constraint system, one block per iteration (cyclic, uniform or greedy
  block choice).  With stepsize 1 and 0/1 rows each step is exactly the KL
  projection onto its block.
* ``sinkhorn``: alternating row/column scaling, equivalent to ``solve_smd``
  with cyclic sampling on the marginal constraint system at the same
  stepsize (1 by default; another eta over-relaxes each half-step).
* ``greenkhorn``: same scaling updates, but each iteration picks the single
  row or column constraint with the largest KL penalty.
* ``pinkhorn``: full-gradient mirror descent on the sum of row and column
  penalties, stepsize 1/2 by default (the objective is 2-relatively smooth).
* ``acc_pinkhorn``: pinkhorn's step with Nesterov momentum on the dual
  potentials, backtracking on its inverse stepsize and function-value
  restart.

The contract lives in one driver, ``_iterate``: it alone builds the trace,
applies the stopping rule and the trace cadence, calls the callback, and
ends a run ``numeric_failure`` at the last valid iterate when a step would
leave the domain.  Each method supplies only its step and its measurement:
the l1 violation plus a snapshot whose objective is evaluated when the
report's trace is first read, in one batched call per chunk of kept trace
entries and bit for bit as a per-iteration evaluation would give it; a run
whose unread snapshots would pass ``_PENDING_BYTES`` evaluates its oldest
chunk as it goes.  ``sinkhorn``, ``greenkhorn`` and ``pinkhorn`` measure
through ``otx._L1``: where one dot product with the signs of an earlier gap
proves the violation above tol, it is left out and evaluated from the
snapshot when the trace is read, in one batched call per chunk and bit for
bit as well; otherwise it is measured.  The snapshot is the marginals for
those three, the constraint values for cyclic and uniform ``solve_smd``,
the per-row penalties greedy ``solve_smd`` selects from, and the objective
itself for ``acc_pinkhorn``, whose step compares them.  Each public solve
runs with numpy's floating-point errors ignored, and each step tells from the
values it computes whether it left the domain.  The four OT methods also
share one scaling state, ``_Scaling``: their iterates are plans diag(a) K~
diag(b) on a stabilized kernel whose scalings are absorbed into log-domain
potentials when they grow, and a step multiplies scalings by (target /
marginal)^eta, a matrix-vector product and no n x m exp, with log-sum-exp kept
for kernels that underflow (not in ``acc_pinkhorn``).  Stopping is always on
the l1 constraint violation; the objective is logged but never used to
stop.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .kernel import as_positive_vector, kl_terms, log_sum_exp
from .otx import _EXP_OVERFLOW, _L1, OTProblem, Potentials, _marginals, _objective, _objectives, _violation
from .otx import _violations, as_constraint_system, gibbs_kernel
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
# or fewer where their snapshots would pass _OBJECTIVE_BYTES: a chunk and the
# kl_terms temporaries of its size then stay below glibc's mmap threshold
# (128 KB), above which every batch would map, and page-fault in, fresh memory
_OBJECTIVE_CHUNK = 128
_OBJECTIVE_BYTES = 64 * 1024
# an unread trace holds at most this many bytes of snapshots: past it, a run
# evaluates its oldest pending chunk of objectives as it goes
_PENDING_BYTES = 1024 * 1024
# scalings beyond this factor either way are absorbed into the potentials;
# between absorptions K~ is the plan divided by at most its square, so the
# entries of K~ that carry mass stay normal doubles
_SCALING_RANGE = 1e20
_LOG_RANGE = float(np.log(_SCALING_RANGE))
# line-search doublings of L per acc_pinkhorn step before it restarts from W
_MAX_DOUBLINGS = 80
# np.geterr() inside a solve
_IGNORE_ALL = {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}


# a domain check's min and max, read at argmin and argmax: both return the
# first NaN, so a check decides as np.minimum.reduce and np.maximum.reduce
# would, and on a short vector the index read costs about half the reduction
def _min(a: np.ndarray):
    return a[a.argmin()]


def _max(a: np.ndarray):
    return a[a.argmax()]


def _gibbs(u, logK, v) -> np.ndarray:
    """exp(u_i + logK_ij + v_j), in that operation order and in one n x m buffer."""
    out = np.add(u[:, None], logK)
    out += v
    return np.exp(out, out=out)


@dataclass(frozen=True)
class SolverConfig:
    """Method selection, stepsize, sampling, and stopping parameters.

    ``eta=None`` picks the method default: 1 for smd and sinkhorn (an eta
    omega != 1 over-relaxes sinkhorn's half-steps) and 1/2 for pinkhorn;
    for acc_pinkhorn, 1/eta is the line search's first L.  greenkhorn
    ignores eta.  ``seed`` only matters for uniform sampling.
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


class _Trace(Sequence):
    """A run's kept entries, as ``TraceEntry`` objects built when first read.

    ``kept`` holds (iteration, objective, violation, ms) for its first
    ``done`` entries and (iteration, snapshot, violation or None, ms) for
    the rest.  The first read of any kind (index, slice, len or iteration)
    evaluates the pending entries in chunks of ``chunk`` (``_evaluated``),
    with numpy's floating-point errors ignored as in a solve, builds the
    entries once and drops the snapshots.
    """

    __slots__ = ("_kept", "_done", "_chunk", "_objectives", "_violations", "_entries")

    def __init__(self, kept: list, done: int, chunk: int, objectives, violations):
        self._kept, self._done, self._chunk = kept, done, chunk
        self._objectives, self._violations = objectives, violations
        self._entries = None

    def _read(self) -> list[TraceEntry]:
        if self._entries is None:
            kept, chunk = self._kept, self._chunk
            with np.errstate(all="ignore"):
                for lo in range(self._done, len(kept), chunk):
                    kept[lo : lo + chunk] = _evaluated(kept[lo : lo + chunk], self._objectives, self._violations)
            self._entries = [TraceEntry(*e) for e in kept]
            self._kept = self._objectives = self._violations = None
        return self._entries

    def __getitem__(self, i):
        return self._read()[i]

    def __len__(self) -> int:
        return len(self._read())

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other):
        if isinstance(other, _Trace):
            other = other._read()
        return self._read() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._read())

    def __reduce__(self):  # a pickle or deep copy is the list of entries
        return list, (self._read(),)


@dataclass
class SolveReport:
    """Final iterate plus per-iteration telemetry and the stop reason.

    ``dataclasses.asdict(report)["trace"]`` is a list of ``TraceEntry``
    objects, not dicts: ``asdict`` deep-copies the trace, and a copy of a
    trace is its list of entries.  For dicts, use
    ``[dataclasses.asdict(e) for e in report.trace]``.
    """

    final_iterate: np.ndarray
    iterations: int
    stop_reason: str
    trace: Sequence[TraceEntry]
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


def _evaluated(part: list, objectives, violations) -> list[tuple]:
    """Pending trace entries as (iteration, objective, violation, ms).

    The violations a proof left out (None) are evaluated from their
    snapshots first, then the objectives of all of them: one batched call
    each.
    """
    snapshots = [e[1] for e in part]
    unmeasured = [snap for snap, e in zip(snapshots, part) if e[2] is None]
    measured = iter(violations(unmeasured) if unmeasured else ())
    values = objectives(snapshots)
    return [(k, obj, next(measured) if v is None else v, ms) for (k, _, v, ms), obj in zip(part, values)]


def _iterate(cfg: SolverConfig, callback, measure, step, current, objectives, violations=None) -> dict:
    """The iteration loop every method runs; returns the report's run fields.

    ``measure()`` gives (snapshot, l1 violation) at the current iterate: the
    snapshot is a value no later step writes, and the violation is None
    where it is proved above ``cfg.tol`` but not evaluated.
    ``objectives(snapshots)`` gives the objectives of a list of snapshots in
    one call, and ``violations(snapshots)`` their violations (not needed
    by a method whose violations are never None).  The returned trace makes
    those calls when it is first read, once per ``_OBJECTIVE_CHUNK`` kept
    entries or ``_OBJECTIVE_BYTES`` of snapshots, whichever comes first
    (sized from the first snapshot, a float counting 8 bytes).  A run whose
    pending snapshots would pass ``_PENDING_BYTES`` makes them for its
    oldest pending chunk as it goes, and ``time_ms`` leaves that time out.
    The run stops ``converged`` once the violation is at most ``cfg.tol``,
    else ``max_iter`` at ``cfg.max_iter``; a None violation never stops it.
    ``step(k)`` moves to iterate k, ``current()`` is what the callback gets
    after every iterate.  A step that would leave the domain returns False
    without changing the iterate, and the run ends ``numeric_failure`` at
    that last valid iterate.
    """
    t0 = time.perf_counter()
    # (iteration, snapshot, violation or None, ms) of each kept entry; the
    # first done hold their objective in place of the snapshot, and their violation
    kept, done = [], 0

    def entry(k: int) -> tuple:
        value, violation = measure()
        return k, value, violation, (time.perf_counter() - t0) * 1e3

    def add(e: tuple) -> None:
        nonlocal t0, done
        kept.append(e)
        if len(kept) - done > hold:  # evaluate the oldest pending chunk in place of its snapshots
            t = time.perf_counter()
            kept[done : done + chunk] = _evaluated(kept[done : done + chunk], objectives, violations)
            done += chunk
            t0 += time.perf_counter() - t

    k, keep = 0, True
    last = entry(0)
    size = getattr(last[1], "nbytes", 8)
    chunk = min(_OBJECTIVE_CHUNK, max(1, _OBJECTIVE_BYTES // size))
    hold = _PENDING_BYTES // size  # pending snapshots an unread trace may hold
    add(last)
    if callback is not None:
        callback(0, current())
    while True:
        if last[2] is not None and last[2] <= cfg.tol:
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
            add(last)
        if callback is not None:
            callback(k, current())
    if not keep:  # the last iterate's entry is kept whatever the cadence
        add(last)
    return {"iterations": k, "stop_reason": reason, "trace": _Trace(kept, done, chunk, objectives, violations)}


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
    rng = np.random.default_rng(cfg.seed)  # uniform blocks, 256 draws at a time: PCG64 gives single draws' sequence
    blocks = itertools.chain.from_iterable(rng.integers(system.n_blocks, size=256).tolist() for _ in itertools.count())
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

    b = system.b  # the objectives hold this, not the system, until the trace is read

    def objectives(snapshots) -> list[float]:
        stacked = np.stack(snapshots)
        return np.add.reduce(stacked if greedy else kl_terms(stacked, b), axis=1).tolist()

    def step(k: int) -> bool:
        nonlocal x, z, s
        if cfg.sampling == "cyclic":
            block = (k - 1) % system.n_blocks
        elif cfg.sampling == "uniform":
            block = next(blocks)
        else:
            block = int(system.block_sums(per).argmax())
        system.block_update(x, s, block, eta, z, work)
        if not (0.0 < _min(z) and _max(z) < np.inf):
            return False
        s_new = system.dots(z)
        if not _min(s_new) > 0.0:
            return False
        x, z, s = z, x, s_new
        selected.append(block)
        return True

    run = _iterate(cfg, callback, measure, step, lambda: x.copy(), objectives)
    return SolveReport(final_iterate=x, **run, selected=selected or None)


class _Scaling:
    """The plan diag(a) K~ diag(b) of an OT problem, K~ = exp(u + logK + v).

    One state for sinkhorn, greenkhorn, pinkhorn and acc_pinkhorn, and the
    start of all five methods: K~ = exp(-C/gamma), divided by its largest
    entry (u = -max logK) where an entry or a row or column sum could
    overflow, and with each row, then each column, that underflows to all
    zeros lifted to a largest entry of 1, since a constant added to C, or to
    one row or column of it, leaves the entropic plan as it is.  The potentials
    are (u + log a, v + log b): (u, v) are absorbed into K~, and the
    scalings (a, b) carry what changed since, so a step is a matrix-vector
    product on K~ and no exp.  Per-constraint vectors are stacked, rows
    then columns: ``w`` = (u, v), ``ab`` = (a, b), ``kab`` = (K~ b, K~^T a),
    the marginals ``rc`` = ab * kab and the targets ``pq`` = (p, q).

    A step that takes a scaling out of [1/_SCALING_RANGE, _SCALING_RANGE]
    absorbs the scalings into (u, v) and rebuilds K~.  A step that meets a
    row or column of K~ summing to 0 (an underflowed kernel) is taken in log
    domain through log-sum-exp, then absorbed.  ``snapshot`` measures the
    plan against ``tol`` through ``_L1``, with ``top`` = max rc from the
    commit.
    """

    def __init__(self, problem: OTProblem, tol: float):
        self.logK = gibbs_kernel(problem)
        self.n = problem.shape[0]
        self.pq = np.concatenate((problem.p, problem.q))
        self.l1 = _L1(self.pq, self.n, tol)
        # the objectives and violations of snapshots' marginals, bit for bit
        # as each one's own; an unread trace holds these and not the state
        self.objectives = functools.partial(_objectives, pq=self.pq, n=self.n)
        self.violations = functools.partial(_violations, pq=self.pq, n=self.n)
        self.rc = None
        top = self.logK.max()
        u = -top if top + np.log(max(problem.shape)) > _EXP_OVERFLOW else 0.0
        self._absorb(np.repeat([u, 0.0], problem.shape))
        if not _min(self.kab) > 0.0:
            self._lift()

    def _lift(self) -> None:
        """Lift each row, then each column, of K~ that has no mass to a largest entry of 1.

        The lift goes into the potentials (u, then v), and rows and columns
        that keep mass keep theirs; raising a column cannot empty a row.
        """
        n, w = self.n, self.w.copy()
        rows = self.kab[:n] == 0.0
        w[:n][rows] = -self.logK[rows].max(axis=1)
        top = (w[:n, None] + self.logK).max(axis=0)
        cols = np.exp(top) == 0.0  # K~'s column is exp(top) at its largest
        w[n:][cols] = -top[cols]
        self._absorb(w)

    def _commit(self, w, K, ab, kab) -> bool:
        """Make this the state unless the plan's marginals overflow or all vanish."""
        rc = ab * kab
        top = float(_max(rc))
        # the start is always committed, even an underflowed kernel's zero marginals
        if self.rc is not None and not 0.0 < top < np.inf:
            return False
        self.w, self.K, self.ab, self.kab, self.rc, self.top = w, K, ab, kab, rc, top
        return True

    def _absorb(self, w) -> bool:
        """Make ``w`` the potentials and 1 the scalings: K~ is rebuilt."""
        if not np.isfinite(w).all():
            return False
        n = self.n
        K = _gibbs(w[:n], self.logK, w[n:])
        return self._commit(w, K, np.ones(w.size), _marginals(K))

    def refresh(self) -> None:
        """Recompute K~ b and K~^T a from K~, dropping incremental drift."""
        n, kab = self.n, np.empty(self.ab.size)
        np.dot(self.K, self.ab[n:], out=kab[:n])
        np.dot(self.ab[:n], self.K, out=kab[n:])
        self._commit(self.w, self.K, self.ab, kab)

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
        lo, hi = (new, new) if single else (_min(new), _max(new))
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
                np.dot(ab[:n], self.K, out=kab[n:])
            if at.stop > n:
                np.dot(self.K, ab[n:], out=kab[:n])
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

    def snapshot(self) -> tuple[np.ndarray, float | None]:
        """(marginals, l1 violation or None where one product proves it above tol) of the plan.

        A commit never writes into the marginals.
        """
        return self.rc, self.l1(self.rc, self.top)

    def potentials(self) -> Potentials:
        w = self.w + np.log(self.ab)
        return Potentials(w[: self.n], w[self.n :])

    def plan(self) -> np.ndarray:
        """The dense plan, from the potentials as ``plan_from_potentials`` builds it."""
        pot = self.potentials()
        return _gibbs(pot.u, self.logK, pot.v)

    def run(self, cfg: SolverConfig, callback, step, measure=None) -> dict:
        """``_iterate`` on this state, measured by ``snapshot`` unless ``measure`` is given."""
        return _iterate(cfg, callback, measure or self.snapshot, step, self.plan, self.objectives, self.violations)

    def report(self, run: dict, selected: list[int] | None = None) -> SolveReport:
        return SolveReport(
            final_iterate=self.plan(), **run, potentials=self.potentials(), selected=selected or None
        )


@_fp_ignored
def sinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Matrix scaling: a = p / (K~ b) and b = q / (K~^T a) in turn.

    Odd-numbered iterations rescale rows, even-numbered ones columns, so
    each iteration matches one block of the cyclic mirror-descent view.
    ``cfg.eta`` omega other than 1 over-relaxes each half-step to
    a <- a (p / r)^omega (cyclic ``solve_smd`` at stepsize omega).
    Each costs one matrix-vector product on the stabilized kernel of
    ``_Scaling``; the potentials (u + log a, v + log b) are reported, and
    the dense plan is materialized from them once at the end (and for
    callbacks).
    """
    st = _Scaling(problem, cfg.tol)
    eta = 1.0 if cfg.eta is None else float(cfg.eta)
    rows, cols = slice(0, st.n), slice(st.n, st.pq.size)
    return st.report(st.run(cfg, callback, lambda k: st.scale(rows if k % 2 else cols, eta)))


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
    convergence.  The measurement is ``_Scaling.snapshot``'s, as in
    ``sinkhorn``; the penalties it selects from are computed with it.
    """
    st = _Scaling(problem, cfg.tol)
    selected: list[int] = []
    per = None  # the penalties of the last measurement, which the next step selects from

    def measure() -> tuple[np.ndarray, float | None]:
        nonlocal per
        per = kl_terms(st.rc, st.pq)
        rc, violation = st.snapshot()
        if violation is not None and violation <= cfg.tol:
            st.refresh()
            per = kl_terms(st.rc, st.pq)
            rc, violation = st.snapshot()
        return rc, violation

    def step(k: int) -> bool:
        i = int(per.argmax())
        if not st.scale(i):
            return False
        if k % 500 == 0 or _min(st.kab) < 0.0:
            st.refresh()
        selected.append(i)
        return True

    return st.report(st.run(cfg, callback, step, measure), selected)


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
    st = _Scaling(problem, cfg.tol)
    eta = 0.5 if cfg.eta is None else float(cfg.eta)
    both = slice(0, st.pq.size)
    return st.report(st.run(cfg, callback, lambda k: st.scale(both, eta)))


@_fp_ignored
def acc_pinkhorn(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Nesterov momentum on the potentials, with backtracking and restart.

    The iterate is the plan exp(W_u - C/gamma + W_v) of the full potentials
    W = w + log(ab) of ``_Scaling``, so every iterate is an entropic plan
    diag(a) K~ diag(b).  Each step extrapolates y = W + ((t - 1) / t')
    (W - W_prev), t' = (1 + sqrt(1 + 4 t^2)) / 2, and takes pinkhorn's
    mirror step from y: W+ = y - g / L with g = log(rc(y) / pq), the
    stacked log ratios of the marginals to their targets (log rc - log pq
    where the ratio overflows).  L is doubled until the Armijo test on
    marginals

        f(W+) <= f(y) + <g, rc(W+) - rc(y)> / 2

    holds or L reaches 2: from there on the step is a pinkhorn step within
    the relative-smoothness bound, which never raises f(y), so f(y) is
    formed only for a test that reads it.  After an accepted step L is
    halved when neither that step nor the accepted step before it doubled
    L: a doubled L is held for two steps instead of being cut straight
    back to a value that fails, and restarts leave this record as it was.
    A step that would raise the objective above f(W) is not taken: t resets
    to 1 and the next step starts from W (function-value restart), so the
    recorded objective never rises.  When the rejected step had no momentum
    already, f is flat to rounding there, and the next step starts from its
    W+ instead of repeating it.  When no trial point has marginals in
    range, the next step restarts from W with the doubled L; where that
    step would repeat this one exactly (it started from W and L did not
    change), the run ends ``numeric_failure``.  Marginals are f * (K~ f_b,
    f_a K~) with f = exp(W - w), two matrix-vector products per point; a
    point whose scalings leave the range of ``_Scaling`` is absorbed into
    K~.  An extrapolated y whose marginals leave the range restarts from W;
    an empty row or column at y ends the run ``numeric_failure``.  A
    violation within tol is measured again on the plan's own sums, by
    absorbing W, before the run may stop ``converged``.
    """
    st = _Scaling(problem, cfg.tol)
    n, pq = st.n, st.pq
    L = 2.0 if cfg.eta is None else 1.0 / float(cfg.eta)
    t = 1.0
    W = W_prev = st.w  # the start's scalings are 1, so its marginals are the plan's own sums
    rc_W = st.rc
    resume = None  # (point, marginals, objective) the next step starts from instead of W
    kept = False  # whether the last accepted step kept L
    obj_W = _objective(rc_W, pq, n)

    kab = np.empty(pq.size)  # buffer for K~ f_b and f_a K~

    def marginals(x):
        """The stacked marginals of the plan at potentials x, or None where it leaves the domain."""
        d = x - st.w
        if _max(np.abs(d)) <= _LOG_RANGE:
            f = np.exp(d, out=d)
            np.dot(st.K, f[n:], out=kab[:n])
            np.dot(f[:n], st.K, out=kab[n:])
            rc = f * kab
        elif st._absorb(x):
            rc = st.rc
        else:
            return None
        return rc if 0.0 < _min(rc) and _max(rc) < np.inf else None

    def measure() -> tuple[float, float]:
        nonlocal rc_W
        violation = _violation(rc_W, pq, n)
        if violation <= cfg.tol and st.w is not W:  # confirm on the plan's own sums, kept for W
            if not st._absorb(W):
                return obj_W, np.inf
            rc_W = st.rc
            violation = _violation(rc_W, pq, n)
        return obj_W, violation

    def step(k: int) -> bool:
        nonlocal W, W_prev, rc_W, obj_W, t, L, resume, kept
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        resumed = resume is not None
        if resumed:
            (y, rc_y, obj_y), resume = resume, None
        elif t == 1.0:
            y, rc_y, obj_y = W, rc_W, obj_W
        else:
            y = W + ((t - 1.0) / t_next) * (W - W_prev)
            rc_y, obj_y = marginals(y), None  # f(y) is formed for the first Armijo test
            if rc_y is None:  # y left the domain: drop the momentum
                W_prev, t = W, 1.0
                return True
        g = np.log(rc_y / pq)
        if not abs(np.add.reduce(g)) < np.inf:  # an entry is -inf, inf or NaN
            if not rc_y.all():
                return False  # an empty row or column: log(rc_y / pq) is -inf there
            # rc_y / pq overflows: take those entries as a difference of logs
            np.copyto(g, np.log(rc_y) - np.log(pq), where=~np.isfinite(g))
        L_y = L
        for _ in range(_MAX_DOUBLINGS):
            w_new = y - g / L
            rc_new = marginals(w_new)
            if rc_new is not None:
                obj_new = _objective(rc_new, pq, n)
                # from L = 2 on, f is 2-relatively smooth and the step cannot raise f(y)
                if L >= 2.0:
                    break
                if obj_y is None:
                    obj_y = _objective(rc_y, pq, n)
                if obj_new <= obj_y + 0.5 * float(g @ (rc_new - rc_y)):
                    break
            L *= 2.0
        else:  # no trial point has marginals in range
            # a restart from W with the same L would repeat this step exactly
            if t == 1.0 and not resumed and L == L_y:
                return False
            W_prev, t = W, 1.0  # restart from W
            return True
        if obj_new > obj_W:  # restart: hold W and drop the momentum
            if t == 1.0:  # no momentum to drop: f is flat to rounding here, so go on from w_new
                resume = w_new, rc_new, obj_new
            W_prev, t = W, 1.0
            return True
        W_prev, W, rc_W, obj_W, t = W, w_new, rc_new, obj_new, t_next
        kept, kept_before = L == L_y, kept
        if kept and kept_before:
            L /= 2.0
        return True

    run = _iterate(cfg, callback, measure, step, lambda: _gibbs(W[:n], st.logK, W[n:]), list)
    if st.w is not W:  # report W itself as the potentials, and its plan as the callbacks get it
        st._absorb(W)
    return st.report(run)


@_fp_ignored
def solve(problem: OTProblem, cfg: SolverConfig, callback=None) -> SolveReport:
    """Dispatch on ``cfg.method``; ``smd`` runs on the marginal constraint system.

    When ``_Scaling``'s start keeps an underflowed entry (its lift raises
    only rows and columns that underflow entirely), ``smd`` has no positive
    start: the run ends at iteration 0 there, ``converged`` if it already
    meets tol and ``numeric_failure`` otherwise.
    """
    if cfg.method == "sinkhorn":
        return sinkhorn(problem, cfg, callback)
    if cfg.method == "greenkhorn":
        return greenkhorn(problem, cfg, callback)
    if cfg.method == "pinkhorn":
        return pinkhorn(problem, cfg, callback)
    if cfg.method == "acc_pinkhorn":
        return acc_pinkhorn(problem, cfg, callback)
    st = _Scaling(problem, cfg.tol)
    if not np.all(st.K > 0.0):
        # an underflowed entry is outside the entropy domain, so every step fails
        return SolveReport(final_iterate=st.K, **st.run(cfg, callback, lambda k: False))
    cb = None if callback is None else lambda k, vec: callback(k, vec.reshape(problem.shape))
    report = solve_smd(as_constraint_system(problem), st.K.reshape(-1), cfg, cb)
    report.final_iterate = report.final_iterate.reshape(problem.shape)
    return report

"""Oracle-backed invariant suite behind the ``check`` CLI command.

Each check draws fresh seeded instances, runs the code the solvers run, and
compares it against an independent reference (finite differences, exact
identities, another method of the family), reporting one pass/fail row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernel import kl_div
from .oracle import fd_gradient
from .otx import OTProblem, as_constraint_system, gibbs_kernel
from .penalty import ConstraintSystem, eval_fi, grad_fi
from .projection import Hyperplane
from .solvers import SolverConfig, greenkhorn, pinkhorn, sinkhorn, solve, solve_smd

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_problem(rng, n: int, m: int | None = None, gamma: float = 1.0) -> OTProblem:
    m = n if m is None else m
    cost = rng.random((n, m))
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, m)
    return OTProblem(cost=cost, gamma=gamma, p=p / p.sum(), q=q / q.sum())


def _random_row(rng, d: int, binary: bool) -> Hyperplane:
    k = int(rng.integers(1, d + 1))
    idx = rng.choice(d, size=k, replace=False)
    vals = np.ones(k) if binary else rng.uniform(0.2, 3.0, k)
    return Hyperplane(indices=idx, values=vals, b=float(rng.uniform(0.5, 3.0)))


def _check_gradients(rng) -> CheckResult:
    tol = 1e-5
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 9))
        row = _random_row(rng, d, binary=bool(rng.integers(2)))
        system = ConstraintSystem.from_rows([row], dimension=d)
        for _ in range(5):
            x = rng.uniform(0.2, 3.0, d)
            g = grad_fi(system, 0, x)
            g_fd = fd_gradient(lambda v: eval_fi(system, 0, v), x)
            denom = max(float(np.linalg.norm(g)), 1.0)
            worst = max(worst, float(np.linalg.norm(g - g_fd)) / denom)
    return CheckResult(
        "gradient_finite_difference",
        worst <= tol,
        f"max rel err vs central differences: {worst:.3e} (tol {tol:.1e})",
    )


def _check_projections(rng) -> CheckResult:
    # one SMD step at eta 1 on a one-row 0/1 system is the KL projection onto its hyperplane
    feas_tol = 1e-12
    pyth_tol = 1e-9
    step = SolverConfig(method="smd", tol=1e-300, max_iter=1)
    worst_feas = worst_idem = worst_pyth = 0.0
    for _ in range(200):
        d = int(rng.integers(3, 10))
        row = _random_row(rng, d, binary=True)
        system = ConstraintSystem.from_rows([row], dimension=d)
        x = rng.uniform(0.1, 5.0, d)
        z = solve_smd(system, x, step).final_iterate
        worst_feas = max(worst_feas, abs(row.dot(z) - row.b) / row.b)
        z2 = solve_smd(system, z, step).final_iterate
        worst_idem = max(worst_idem, float(np.max(np.abs(z2 - z))) / max(float(np.max(z)), 1.0))
        y = rng.uniform(0.1, 5.0, d)
        y[row.indices] *= row.b / row.dot(y)
        gap = kl_div(y, x) - kl_div(y, z) - kl_div(z, x)
        worst_pyth = max(worst_pyth, abs(gap) / max(1.0, kl_div(y, x)))
    return CheckResult(
        "projection_geometry",
        worst_feas <= feas_tol and worst_idem <= feas_tol and worst_pyth <= pyth_tol,
        f"SMD step on 200 0/1 rows: feasibility {worst_feas:.3e}, idempotence {worst_idem:.3e} "
        f"(tol {feas_tol:.1e}); Pythagoras gap {worst_pyth:.3e} (tol {pyth_tol:.1e})",
    )


def _check_equivalence(rng) -> CheckResult:
    # plain (eta 1) and over-relaxed (eta 1.5) sinkhorn are cyclic SMD at that stepsize
    tol = 1e-10
    iters = 60
    worst = 0.0
    for _ in range(3):
        problem = _random_problem(rng, 8)
        for eta in (1.0, 1.5):
            plans_sink: list[np.ndarray] = []
            plans_smd: list[np.ndarray] = []
            cfg_sink = SolverConfig(method="sinkhorn", eta=eta, tol=1e-300, max_iter=iters)
            cfg_smd = SolverConfig(method="smd", eta=eta, sampling="cyclic", tol=1e-300, max_iter=iters)
            sinkhorn(problem, cfg_sink, callback=lambda k, pl: plans_sink.append(pl))
            solve(problem, cfg_smd, callback=lambda k, pl: plans_smd.append(pl.copy()))
            for a, b in zip(plans_sink, plans_smd):
                worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult(
        "sinkhorn_smd_equivalence",
        worst <= tol,
        f"max plan gap at eta 1 and 1.5 over 3 instances x {iters} iters: {worst:.3e} (tol {tol:.1e})",
    )


def _check_greenkhorn_smd(rng) -> CheckResult:
    # greenkhorn is greedy SMD on the singleton blocks of the marginal system
    tol = 1e-15
    worst = 0.0
    same = True
    for _ in range(3):
        n, m = (int(k) for k in rng.integers(4, 13, size=2))
        problem = _random_problem(rng, n, m, gamma=float(10.0 ** rng.uniform(-1.0, 0.0)))
        marginals = np.vstack((np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))))
        system = ConstraintSystem.from_dense(marginals, np.concatenate((problem.p, problem.q)))
        x0 = np.exp(gibbs_kernel(problem)).ravel()
        green = greenkhorn(problem, SolverConfig(method="greenkhorn", tol=1e-9))
        smd = solve_smd(system, x0, SolverConfig(method="smd", sampling="greedy", tol=1e-9))
        same = same and green.stop_reason == smd.stop_reason and green.selected == smd.selected
        worst = max(worst, float(np.max(np.abs(green.final_iterate - smd.final_iterate.reshape(n, m)))))
    return CheckResult(
        "greenkhorn_greedy_smd_equivalence",
        same and worst <= tol,
        f"stop reasons and selections {'agree' if same else 'differ'}; "
        f"max plan gap over 3 instances: {worst:.3e} (tol {tol:.1e})",
    )


def _check_pinkhorn_descent(rng) -> CheckResult:
    # the penalty is L-relatively smooth with L = 2, and the default eta is 1/L: the
    # default run must be the eta 1/L run bit for bit (its trace less the times)
    def record(r):
        return r.final_iterate.tobytes(), r.iterations, [(e.iteration, e.objective, e.violation_l1) for e in r.trace]

    tol = 1e-12
    cfg = SolverConfig(method="pinkhorn", tol=1e-12, max_iter=300)
    worst, constants, same = -np.inf, set(), True
    for _ in range(3):
        problem = _random_problem(rng, 10)
        L = as_constraint_system(problem).smooth_constant()
        constants.add(L)
        report = pinkhorn(problem, cfg)
        same = same and record(report) == record(pinkhorn(problem, replace(cfg, eta=1.0 / L)))
        objs = [e.objective for e in report.trace]
        worst = max(worst, max(b - a for a, b in zip(objs, objs[1:])))
    return CheckResult(
        "pinkhorn_descent",
        worst <= tol and constants == {2.0} and same,
        f"L = {', '.join(f'{c:g}' for c in sorted(constants))}; default eta run {'equals' if same else 'differs from'} "
        f"the eta 1/L run; max objective increase over 3 runs: {worst:.3e} (tol {tol:.1e})",
    )


def run_checks(seed: int = 0) -> list[CheckResult]:
    """Run the full invariant suite; order and names are stable."""
    rng = np.random.default_rng(seed)
    return [
        _check_gradients(rng),
        _check_projections(rng),
        _check_equivalence(rng),
        _check_greenkhorn_smd(rng),
        _check_pinkhorn_descent(rng),
    ]

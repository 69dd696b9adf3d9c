"""Oracle-backed invariant suite behind the ``check`` CLI command.

Each check draws fresh seeded instances, compares a library computation
against an independent reference (finite differences, the numeric prox
oracle, exact identities), and reports one pass/fail row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import bregman_div
from .oracle import fd_gradient, prox_1d_numeric
from .otx import OTProblem, gibbs_kernel
from .penalty import ConstraintSystem, eval_fi, grad_fi
from .projection import (
    Hyperplane,
    bregman_prox_entropy_linear,
    project_binary,
    project_general,
)
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
    feas_tol = 1e-12
    pyth_tol = 1e-9
    worst_feas = worst_idem = worst_pyth = worst_red = 0.0
    for _ in range(300):
        d = int(rng.integers(3, 10))
        row = _random_row(rng, d, binary=True)
        x = rng.uniform(0.1, 5.0, d)
        z = project_binary(x, row)
        worst_feas = max(worst_feas, abs(row.dot(z) - row.b) / row.b)
        z2 = project_binary(z, row)
        worst_idem = max(worst_idem, float(np.max(np.abs(z2 - z))) / max(float(np.max(z)), 1.0))
        y = rng.uniform(0.1, 5.0, d)
        y[row.indices] *= row.b / row.dot(y)
        gap = bregman_div(y, x) - bregman_div(y, z) - bregman_div(z, x)
        worst_pyth = max(worst_pyth, abs(gap) / max(1.0, bregman_div(y, x)))
    for _ in range(300):
        d = int(rng.integers(3, 10))
        row = _random_row(rng, d, binary=False)
        x = rng.uniform(0.1, 5.0, d)
        z = project_general(x, row)
        worst_feas = max(worst_feas, abs(row.dot(z) - row.b) / row.b)
    for _ in range(100):
        d = int(rng.integers(3, 10))
        row = _random_row(rng, d, binary=True)
        x = rng.uniform(0.1, 5.0, d)
        za = project_binary(x, row)
        zb = project_general(x, row)
        worst_red = max(worst_red, float(np.max(np.abs(za - zb))) / max(float(np.max(za)), 1.0))
    passed = (
        worst_feas <= feas_tol
        and worst_idem <= feas_tol
        and worst_red <= feas_tol
        and worst_pyth <= pyth_tol
    )
    return CheckResult(
        "projection_geometry",
        passed,
        f"feasibility {worst_feas:.3e}, idempotence {worst_idem:.3e}, "
        f"binary-reduction {worst_red:.3e} (tol {feas_tol:.1e}); "
        f"Pythagoras gap {worst_pyth:.3e} (tol {pyth_tol:.1e})",
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
    tol = 1e-12
    worst = -np.inf
    for _ in range(3):
        problem = _random_problem(rng, 10)
        report = pinkhorn(problem, SolverConfig(method="pinkhorn", tol=1e-12, max_iter=300))
        objs = [e.objective for e in report.trace]
        worst = max(worst, max(b - a for a, b in zip(objs, objs[1:])))
    return CheckResult(
        "pinkhorn_descent",
        worst <= tol,
        f"max objective increase over 3 runs: {worst:.3e} (tol {tol:.1e})",
    )


def _check_prox(rng) -> CheckResult:
    tol = 1e-8
    worst = 0.0
    for _ in range(200):
        x = float(np.exp(rng.uniform(-2.0, 2.0)))
        c = float(rng.uniform(-3.0, 3.0))
        eta = float(np.exp(rng.uniform(-2.0, 1.0)))
        closed = bregman_prox_entropy_linear(np.array([x]), np.array([c]), eta)[0]
        numeric = prox_1d_numeric(x, c, eta)
        worst = max(worst, abs(closed - numeric))
    return CheckResult(
        "prox_closed_form",
        worst <= tol,
        f"max |closed - numeric| over 200 triples: {worst:.3e} (tol {tol:.1e})",
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
        _check_prox(rng),
    ]

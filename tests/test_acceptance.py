"""Acceptance gate: the ten release criteria, one test each.

Each test prints a single [PASS]/[FAIL] line with the measured quantity and
the pinned tolerance, then asserts.  Run with ``pytest -s`` to see the lines
for passing tests as well.
"""

import json
import time

import numpy as np

from pinkhorn import (
    ConstraintSystem,
    Hyperplane,
    OTProblem,
    SolverConfig,
    analytic_symmetric_2x2,
    bregman_prox_entropy_linear,
    eval_f,
    eval_fi,
    fd_gradient,
    grad_fi,
    kl_div,
    marginal_violation,
    pinkhorn,
    project_binary,
    project_general,
    prox_1d_numeric,
    sinkhorn,
    solve,
    solve_smd,
    transport_cost,
)
from pinkhorn.cli import main as cli_main


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def random_ot(rng, n, gamma):
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, n)
    return OTProblem(cost=rng.random((n, n)), gamma=gamma, p=p / p.sum(), q=q / q.sum())


CRITERION4_GRID = [(n, gamma) for n in (5, 20, 50) for gamma in (0.1, 1.0)]


def criterion4_problem(idx):
    n, gamma = CRITERION4_GRID[idx]
    return random_ot(np.random.default_rng(100 + idx), n, gamma)


def test_criterion_01_sinkhorn_smd_equivalence():
    t_start = time.perf_counter()
    iters = 100
    worst = 0.0
    for s in range(20):
        prob = random_ot(np.random.default_rng(1000 + s), 10, gamma=1.0)
        plans_sink, plans_smd = [], []
        sinkhorn(
            prob,
            SolverConfig(method="sinkhorn", tol=1e-300, max_iter=iters),
            callback=lambda k, pl: plans_sink.append(pl),
        )
        solve(
            prob,
            SolverConfig(method="smd", eta=1.0, sampling="cyclic", tol=1e-300, max_iter=iters),
            callback=lambda k, pl: plans_smd.append(pl.copy()),
        )
        assert len(plans_sink) == iters + 1 and len(plans_smd) == iters + 1
        for a, b in zip(plans_sink, plans_smd):
            worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - t_start
    report(
        1,
        "sinkhorn vs cyclic smd, 20 instances x 100 iterations",
        worst <= 1e-10 and elapsed < 5.0,
        f"max elementwise gap {worst:.3e} <= 1e-10, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_projection_correctness():
    rng = np.random.default_rng(2000)
    worst_feas = worst_idem = worst_pyth = 0.0
    for _ in range(1000):
        d = int(rng.integers(3, 12))
        k = int(rng.integers(1, d + 1))
        row = Hyperplane(
            indices=rng.choice(d, size=k, replace=False),
            values=np.ones(k),
            b=float(rng.uniform(0.1, 5.0)),
        )
        x = rng.uniform(0.05, 10.0, d)
        z = project_binary(x, row)
        worst_feas = max(worst_feas, abs(row.dot(z) - row.b) / row.b)
        z2 = project_binary(z, row)
        worst_idem = max(
            worst_idem, float(np.max(np.abs(z2 - z))) / max(float(np.max(z)), 1.0)
        )
        y = rng.uniform(0.1, 5.0, d)
        y[row.indices] *= row.b / row.dot(y)
        gap = kl_div(y, x) - kl_div(y, z) - kl_div(z, x)
        worst_pyth = max(worst_pyth, abs(gap) / max(1.0, kl_div(y, x)))
    worst_resid = worst_red = 0.0
    for _ in range(1000):
        d = int(rng.integers(3, 12))
        k = int(rng.integers(1, d + 1))
        idx = rng.choice(d, size=k, replace=False)
        x = rng.uniform(0.05, 10.0, d)
        general = Hyperplane(
            indices=idx, values=rng.uniform(0.1, 4.0, k), b=float(rng.uniform(0.1, 5.0))
        )
        zg = project_general(x, general)
        worst_resid = max(worst_resid, abs(general.dot(zg) - general.b) / general.b)
        binary = Hyperplane(indices=idx, values=np.ones(k), b=float(rng.uniform(0.1, 5.0)))
        za = project_binary(x, binary)
        zb = project_general(x, binary)
        worst_red = max(
            worst_red, float(np.max(np.abs(za - zb))) / max(float(np.max(za)), 1.0)
        )
    ok = (
        worst_feas <= 1e-12
        and worst_idem <= 1e-12
        and worst_pyth <= 1e-9
        and worst_resid <= 1e-12
        and worst_red <= 1e-12
    )
    report(
        2,
        "1000 binary + 1000 general projections",
        ok,
        f"feasibility {worst_feas:.3e}/1e-12, idempotence {worst_idem:.3e}/1e-12, "
        f"Pythagoras {worst_pyth:.3e}/1e-9, general residual {worst_resid:.3e}/1e-12, "
        f"binary reduction {worst_red:.3e}/1e-12",
    )


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(3000)
    worst = 0.0
    points = 0
    for _ in range(20):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, d + 1))
        idx = rng.choice(d, size=k, replace=False)
        binary = bool(rng.integers(2))
        values = np.ones(k) if binary else rng.uniform(0.2, 3.0, k)
        row = Hyperplane(indices=idx, values=values, b=float(rng.uniform(0.3, 3.0)))
        system = ConstraintSystem.from_rows([row], dimension=d)
        for _ in range(5):
            x = rng.uniform(0.2, 3.0, d)
            g = grad_fi(system, 0, x)
            g_fd = fd_gradient(lambda v: eval_fi(system, 0, v), x)
            worst = max(
                worst, float(np.linalg.norm(g - g_fd)) / max(float(np.linalg.norm(g)), 1.0)
            )
            points += 1
    report(
        3,
        "grad_fi vs central differences at 100 points / 20 systems",
        points == 100 and worst <= 1e-5,
        f"max relative error {worst:.3e} <= 1e-5",
    )


def test_criterion_04_convergence_grid():
    methods = ("sinkhorn", "greenkhorn", "pinkhorn", "acc_pinkhorn")
    worst_iters = 0
    worst_time = 0.0
    ok = True
    for idx in range(len(CRITERION4_GRID)):
        prob = criterion4_problem(idx)
        for method in methods:
            cfg = SolverConfig(method=method, tol=1e-8, max_iter=100_000)
            t0 = time.perf_counter()
            rep = solve(prob, cfg)
            dt = time.perf_counter() - t0
            ok = ok and rep.stop_reason == "converged" and dt < 10.0
            ok = ok and rep.trace[-1].violation_l1 <= 1e-8
            worst_iters = max(worst_iters, rep.iterations)
            worst_time = max(worst_time, dt)
    report(
        4,
        "four methods on N in {5,20,50}, gamma in {0.1,1}",
        ok,
        f"all converged to 1e-8; max iterations {worst_iters} <= 1e5, "
        f"max solve time {worst_time:.2f}s < 10s",
    )


def test_criterion_05_pinkhorn_descent():
    worst_increase = -np.inf
    ok = True
    for idx in range(len(CRITERION4_GRID)):
        prob = criterion4_problem(idx)
        rep = pinkhorn(prob, SolverConfig(method="pinkhorn", eta=0.5, tol=1e-8))
        # the trace records every iteration below the dense-cadence limit,
        # so "every iteration" is fully checked only if we stayed under it
        ok = ok and rep.iterations <= 1000 and rep.stop_reason == "converged"
        objs = [e.objective for e in rep.trace]
        worst_increase = max(
            worst_increase, max(b - a for a, b in zip(objs, objs[1:]))
        )
    ok = ok and worst_increase <= 1e-12
    report(
        5,
        "pinkhorn objective non-increasing on the criterion-4 grid",
        ok,
        f"max per-step objective increase {worst_increase:.3e} <= 1e-12",
    )


def test_criterion_06_analytic_2x2():
    prob = OTProblem(cost=[[0.0, 1.0], [1.0, 0.0]], gamma=0.5, p=[0.5, 0.5], q=[0.5, 0.5])
    target_plan = np.array([[0.440399, 0.059601], [0.059601, 0.440399]])
    target_cost = 0.119203
    oracle_plan, oracle_cost = analytic_symmetric_2x2(0.5)
    assert float(np.max(np.abs(oracle_plan - target_plan))) <= 1e-6
    assert abs(oracle_cost - target_cost) <= 1e-6
    worst_plan = worst_cost = 0.0
    ok = True
    for method in ("sinkhorn", "greenkhorn", "pinkhorn", "acc_pinkhorn", "smd"):
        rep = solve(prob, SolverConfig(method=method, tol=1e-10))
        ok = ok and rep.stop_reason == "converged"
        worst_plan = max(worst_plan, float(np.max(np.abs(rep.final_iterate - target_plan))))
        worst_cost = max(worst_cost, abs(transport_cost(prob, rep.final_iterate) - target_cost))
    ok = ok and worst_plan <= 1e-6 and worst_cost <= 1e-6
    report(
        6,
        "all five methods on the closed-form 2x2 instance",
        ok,
        f"max plan entry error {worst_plan:.3e} <= 1e-6, "
        f"max cost error {worst_cost:.3e} <= 1e-6",
    )


def test_criterion_07_prox_oracle_agreement():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        x = float(np.exp(rng.uniform(-2.0, 2.0)))
        c = float(rng.uniform(-3.0, 3.0))
        eta = float(np.exp(rng.uniform(-2.0, 1.0)))
        closed = float(bregman_prox_entropy_linear([x], [c], eta)[0])
        worst = max(worst, abs(prox_1d_numeric(x, c, eta) - closed))
    report(
        7,
        "closed-form vs numeric prox on 1000 triples",
        worst <= 1e-8,
        f"max absolute gap {worst:.3e} <= 1e-8",
    )


def test_criterion_08_small_gamma_stability():
    rng = np.random.default_rng(8000)
    prob = random_ot(rng, 10, gamma=0.01)
    rep = sinkhorn(prob, SolverConfig(tol=1e-8))
    plan = rep.final_iterate
    finite = bool(np.all(np.isfinite(plan)))
    positive = bool(np.all(plan > 0.0))
    viol = marginal_violation(prob, plan)
    ok = rep.stop_reason == "converged" and finite and positive and viol <= 1.1e-8
    report(
        8,
        "log-domain sinkhorn at gamma = 0.01",
        ok,
        f"converged in {rep.iterations} iterations, violation {viol:.3e}, "
        f"min plan entry {plan.min():.3e} finite and positive",
    )


def _criterion9_system():
    rng = np.random.default_rng(99)
    d = 60
    x_true = rng.uniform(0.5, 2.0, d)
    rows, blocks = [], []
    for _ in range(5):
        perm = rng.permutation(d)
        block = []
        for r in range(4):
            idx = np.sort(perm[15 * r : 15 * (r + 1)])
            b_val = float(x_true[idx].sum())
            block.append(len(rows))
            rows.append(Hyperplane(indices=idx, values=np.ones(15), b=b_val))
        blocks.append(block)
    return ConstraintSystem.from_rows(rows, dimension=d, blocks=blocks)


def test_criterion_09_block_system_samplings():
    system = _criterion9_system()
    x0 = np.ones(system.dimension)
    iters = {}
    ok = True
    for sampling in ("cyclic", "uniform", "greedy"):
        cfg = SolverConfig(method="smd", sampling=sampling, tol=1e-8, seed=0)
        states = []
        rep = solve_smd(system, x0, cfg, callback=lambda k, x: states.append(x.copy()))
        ok = ok and rep.stop_reason == "converged"
        ok = ok and eval_f(system, rep.final_iterate).l1_violation <= 1e-8
        iters[sampling] = rep.iterations
        if sampling == "greedy":
            greedy_ok = True
            for step, block in enumerate(rep.selected):
                per = eval_f(system, states[step]).per_constraint_kl
                pens = [per[system.blocks[j]].sum() for j in range(system.n_blocks)]
                if max(pens) > 0.0 and pens[block] == 0.0:
                    greedy_ok = False
            ok = ok and greedy_ok
    report(
        9,
        "5-block binary system, all samplings converge",
        ok,
        "iterations cyclic/uniform/greedy = "
        f"{iters.get('cyclic')}/{iters.get('uniform')}/{iters.get('greedy')}; "
        "greedy never picked a violation-free block",
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    (tmp_path / "cost.csv").write_text("0,1\n1,0\n")
    (tmp_path / "m.csv").write_text("0.5\n0.5\n")
    base = [
        "solve",
        "--cost", str(tmp_path / "cost.csv"),
        "--p", str(tmp_path / "m.csv"),
        "--q", str(tmp_path / "m.csv"),
        "--gamma", "0.5",
    ]
    code = cli_main(base + ["--summary", str(tmp_path / "s.json")])
    summary = json.loads((tmp_path / "s.json").read_text())
    ok = (
        code == 0
        and summary["final_violation"] <= 1e-8
        and abs(summary["transport_cost"] - 0.119203) <= 1e-6
    )
    # skew one marginal so the pinkhorn run takes many iterations and the
    # non-increasing-violation check has content
    (tmp_path / "p_skew.csv").write_text("0.75\n0.25\n")
    log_path = tmp_path / "log.csv"
    code2 = cli_main(
        [
            "solve",
            "--cost", str(tmp_path / "cost.csv"),
            "--p", str(tmp_path / "p_skew.csv"),
            "--q", str(tmp_path / "m.csv"),
            "--gamma", "0.5",
            "--method", "pinkhorn",
            "--log", str(log_path),
            "--summary", str(tmp_path / "s2.json"),
        ]
    )
    lines = log_path.read_text().strip().splitlines()
    header_ok = lines[0] == "iter,objective,violation_l1,time_ms"
    viols = [float(line.split(",")[2]) for line in lines[1:]]
    monotone = all(b <= a + 1e-15 for a, b in zip(viols, viols[1:]))
    ok = ok and code2 == 0 and header_ok and monotone
    capsys.readouterr()  # swallow any CLI stdout before printing the verdict
    report(
        10,
        "CLI solve summary and pinkhorn telemetry",
        ok,
        f"exit codes {code}/{code2}, violation {summary['final_violation']:.3e}, "
        f"cost gap {abs(summary['transport_cost'] - 0.119203):.3e}, "
        f"telemetry rows {len(viols)} with non-increasing violation",
    )

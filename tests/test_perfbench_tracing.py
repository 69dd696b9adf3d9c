"""The benchmark tracer still finds every pinkhorn name it rebinds.

``perfbench/tracing.py`` wraps module globals and class methods of the
package from outside and refuses to install when one has moved, so a
refactor that moves such a name fails here instead of in a traced run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import pinkhorn
import pinkhorn.cli  # noqa: F401  (the tracer wraps cli functions too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every (owner, attribute) the tracer rebinds, with its current value."""
    found = {}
    for _, attr, sites in tracing.FUNCTIONS.values():
        for site in sites:
            owner = pinkhorn if site == "" else getattr(pinkhorn, site)
            found[(owner.__name__, attr)] = getattr(owner, attr)
    for module, cls_name, attr in tracing.METHODS.values():
        found[(cls_name, attr)] = getattr(pinkhorn, module).__dict__[cls_name].__dict__[attr]
    return found


def test_tracer_installs_records_and_uninstalls():
    tracing = _load_tracing()
    before = _bindings(tracing)
    tracer = tracing.Tracer(pinkhorn)
    tracer.install()
    try:
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = pinkhorn.OTProblem(cost=cost, gamma=1.0, p=[0.5, 0.5], q=[0.4, 0.6])
        cfg = pinkhorn.SolverConfig(method="smd", tol=1e-9)
        report = tracer.run_job("smoke", lambda: pinkhorn.solve(problem, cfg))
    finally:
        tracer.uninstall()
    assert report.stop_reason == "converged"
    totals = tracer.layer_totals()
    assert totals["otx.as_constraint_system"]["calls"] == 1
    assert totals["penalty.ConstraintSystem"]["calls"] == 1
    assert totals["solvers.smd"]["calls"] == 1
    assert totals["penalty.dots"]["calls"] == report.iterations + 1
    assert totals["projection.Hyperplane"]["calls"] == 0
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_greenkhorn_measures_penalties_once_per_iteration():
    tracing = _load_tracing()
    tracer = tracing.Tracer(pinkhorn)
    tracer.install()
    try:
        rng = np.random.default_rng(5)
        x, y = rng.random((6, 2)), rng.random((7, 2))
        cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
        problem = pinkhorn.OTProblem(cost=cost, gamma=0.1, p=np.full(6, 1 / 6), q=np.full(7, 1 / 7))
        cfg = pinkhorn.SolverConfig(method="greenkhorn", tol=1e-9)
        report = tracer.run_job("greenkhorn", lambda: pinkhorn.solve(problem, cfg))
    finally:
        tracer.uninstall()
    assert report.stop_reason == "converged"
    k = report.iterations
    totals = tracer.layer_totals()
    assert tracer.iterations["solvers.greenkhorn"] == k
    assert totals["kernel.log_sum_exp"]["calls"] == 0
    # one stacked row-and-column penalty vector per measurement, none for the
    # selection, and one more where the plan first measures within tol: the
    # confirming measurement on products recomputed from the kernel
    assert totals["kernel.kl_terms"]["calls"] + totals["otx.kl_terms"]["calls"] == k + 2


def test_smd_on_a_unit_block_system_counts_every_dots_call():
    # two blocks of 0/1 rows that each cover x, as the benchmark's block
    # systems are: block_update's one-exp-per-row path
    rng = np.random.default_rng(7)
    d, support = 40, 5
    cols = np.concatenate([rng.permutation(d), rng.permutation(d)])
    rows = np.repeat(np.arange(2 * d // support), support)
    b = np.bincount(rows, weights=rng.uniform(0.5, 1.5, d)[cols])
    blocks = [list(range(d // support)), list(range(d // support, 2 * d // support))]
    x0 = np.exp(-3.0 * rng.random(d))
    for sampling in ("greedy", "uniform"):
        tracing = _load_tracing()
        tracer = tracing.Tracer(pinkhorn)
        tracer.install()
        try:
            system = pinkhorn.ConstraintSystem(rows, cols, np.ones(cols.size), b, d, blocks)
            cfg = pinkhorn.SolverConfig(method="smd", sampling=sampling, tol=1e-9)
            report = tracer.run_job(sampling, lambda: pinkhorn.solve_smd(system, x0, cfg))
        finally:
            tracer.uninstall()
        assert report.stop_reason == "converged" and report.iterations > 10
        assert system._unit and [s is not None for s in system._sources] == [True, True]
        totals = tracer.layer_totals()
        assert tracer.iterations["solvers.smd"] == report.iterations
        # the start, then one call per accepted step
        assert totals["penalty.dots"]["calls"] == report.iterations + 1
        if sampling == "greedy":  # the per-row penalties of each measurement, which the next step selects from
            assert totals["kernel.kl_terms"]["calls"] == report.iterations + 1


def test_acc_pinkhorn_measures_each_objective_with_one_kl_call(monkeypatch):
    tracing = _load_tracing()
    evaluations = []
    objective = pinkhorn.solvers._objective

    def counting(*args):
        evaluations.append(args)
        return objective(*args)

    monkeypatch.setattr(pinkhorn.solvers, "_objective", counting)
    tracer = tracing.Tracer(pinkhorn)
    tracer.install()
    try:
        rng = np.random.default_rng(46)
        cost = rng.random((8, 8))
        problem = pinkhorn.OTProblem(cost=cost, gamma=0.5, p=np.full(8, 1 / 8), q=np.full(8, 1 / 8))
        cfg = pinkhorn.SolverConfig(method="acc_pinkhorn", tol=1e-8)
        report = tracer.run_job("acc_pinkhorn", lambda: pinkhorn.solve(problem, cfg))
    finally:
        tracer.uninstall()
    assert report.stop_reason == "converged"
    totals = tracer.layer_totals()
    assert tracer.iterations["solvers.acc_pinkhorn"] == report.iterations
    # the start, then f(W+) once per line-search trial and f(y) once per
    # Armijo test, all on marginals
    assert len(evaluations) > report.iterations + 1
    assert totals["otx.kl_terms"]["calls"] == len(evaluations)
    assert totals["kernel.kl_terms"]["calls"] == 0
    assert totals["kernel.log_sum_exp"]["calls"] == 0


def test_each_construction_door_counts_one_constructor_call(tmp_path):
    # every system is one ConstraintSystem.__init__ span, whichever door built
    # it: a refactor that builds past __init__ would zero the layer's time
    (tmp_path / "A.csv").write_text("row,col,value\n0,2,2.0\n0,0,1.0\n1,1,3.0\n1,2,1.0\n")
    (tmp_path / "b.csv").write_text("1\n2\n")
    A = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    problem = pinkhorn.OTProblem(cost=cost, gamma=1.0, p=[0.5, 0.5], q=[0.4, 0.6])
    cli = ["system", "--matrix", str(tmp_path / "A.csv"), "--b", str(tmp_path / "b.csv")]
    doors = {
        "from_triplets": lambda: pinkhorn.ConstraintSystem.from_triplets([(0, 2, 2.0), (0, 0, 1.0), (1, 1, 3.0)], [1, 2]),
        "from_dense": lambda: pinkhorn.ConstraintSystem.from_dense(A, [1.0, 2.0]),
        "as_constraint_system": lambda: pinkhorn.as_constraint_system(problem),
        "pinkhorn system": lambda: pinkhorn.cli.main(cli + ["--summary", str(tmp_path / "summary.json")]),
    }
    tracing = _load_tracing()
    tracer = tracing.Tracer(pinkhorn)
    tracer.install()
    try:
        for name, door in doors.items():
            before = tracer.layer_totals()["penalty.ConstraintSystem"]["calls"]
            tracer.run_job(name, door)
            assert tracer.layer_totals()["penalty.ConstraintSystem"]["calls"] == before + 1, name
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["penalty.ConstraintSystem"]["calls"] == len(doors)
    assert totals["penalty.ConstraintSystem"]["s"] > 0.0

"""Seeded inputs, jobs and independent output checks for the three workloads.

A workload is a fixed list of jobs (one pass) made from ``--seed`` in three
steps:

* ``generate`` is the benchmark's own input generation (numpy arrays and
  CSV files); it is not timed;
* ``build`` is the timed set-up: it constructs every library input object
  through the public constructors;
* ``prepare`` computes the untimed references and returns the jobs.

Every job is checked with numpy alone: violation recomputed from the
returned iterate, finite and nonnegative entries, and the transport cost
against a tight-tolerance reference sinkhorn solve of the same instance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

TOL = 1e-6  # library jobs
CLI_TOL = 1e-8  # the CLI default
REF_TOL = 1e-9  # reference sinkhorn solves: 1000x tighter than TOL
CLI_REF_TOL = 1e-12
# Documented known failures of the seed commit.  They stay in the workloads
# and count in error_rate; the caps bound the time they take.
SMD_FAIL_MAX_ITER = 400
CLI_FAIL_MAX_ITER = 200
CONVERGED = ("converged",)
# the plain eta=1 mirror step ignores the smoothness constant 3 of the
# coefficient-3 rows: it overflows, or it oscillates until the cap.  Which of
# the two an instance shows depends on the instance (greedy mostly stalls,
# but on some seeds overflows), so both are the documented failure.
SMD_DEFECT = ("numeric_failure", "max_iter")


@dataclass
class Job:
    """One solve: ``call`` is the timed region, ``check`` inspects its result.

    ``check`` returns (stop_reason, problem), problem being None when the
    output passed.  ``expect`` holds the documented stop reasons.
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, str | None]]
    expect: tuple[str, ...] = CONVERGED


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, str], dict]
    build: Callable[[Any, dict], dict]
    prepare: Callable[[Any, dict, dict, str], list[Job]]


# ---------------------------------------------------------------- inputs


def _rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, i))


def _grid_points(rng, n: int) -> np.ndarray:
    """n jittered points, one per cell of a k x k grid on the unit square.

    Jitter instead of uniform draws keeps the geometry, and with it the
    iteration counts, close across seeds.
    """
    k = math.ceil(math.sqrt(n))
    cells = rng.permutation(k * k)[:n]
    return (np.stack([cells % k, cells // k], axis=1) + rng.random((n, 2))) / k


def _marginal(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum()


def point_cloud(rng, n: int, m: int, gamma: float) -> dict:
    """Squared-Euclidean cost between two jittered clouds, random marginals."""
    x = _grid_points(rng, n)
    y = _grid_points(rng, m)
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return {"cost": cost, "gamma": gamma, "p": _marginal(rng, n), "q": _marginal(rng, m)}


def clustered_cloud(rng, n: int, m: int, gamma: float, spacing: float) -> dict:
    """Four unit-square clusters on a ``spacing`` grid, a quarter of the mass each.

    A cross-cluster pair costs at least (spacing - 1)^2, so with
    (spacing - 1)^2 / gamma > 745 three quarters of the entries of
    exp(-C/gamma) underflow to zero, while the plan stays within clusters
    and the solves converge at the clusters' own scale.
    """
    offsets = spacing * np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    x = np.concatenate([_grid_points(rng, n // 4) + o for o in offsets])
    y = np.concatenate([_grid_points(rng, m // 4) + o for o in offsets])
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    p = np.concatenate([_marginal(rng, n // 4) for _ in offsets]) / 4
    q = np.concatenate([_marginal(rng, m // 4) for _ in offsets]) / 4
    return {"cost": cost, "gamma": gamma, "p": p, "q": q}


def uniform_cost(rng, n: int) -> dict:
    return {"cost": rng.random((n, n)), "gamma": 1.0, "p": _marginal(rng, n), "q": _marginal(rng, n)}


def block_system(rng, d: int, n_blocks: int, support: int, coef_max: float) -> dict:
    """Feasible sparse system: each block splits 0..d-1 into rows of ``support``.

    b = A x* for a positive x* of unit mass, so a positive solution exists.
    Coefficients are 1 when ``coef_max`` is 1, else uniform on [1, coef_max].
    The start x0 = exp(-15 u), u uniform, spans six decades, which takes the
    0/1 systems some hundred iterations to correct.
    """
    per = d // support
    cols = np.concatenate([rng.permutation(d)[: per * support] for _ in range(n_blocks)])
    rows = np.repeat(np.arange(n_blocks * per), support)
    vals = np.ones(cols.size) if coef_max == 1.0 else rng.uniform(1.0, coef_max, cols.size)
    x_star = _marginal(rng, d)
    b = np.bincount(rows, weights=vals * x_star[cols], minlength=n_blocks * per)
    blocks = [list(range(k * per, (k + 1) * per)) for k in range(n_blocks)]
    x0 = np.exp(-15.0 * rng.random(d))
    return {"rows": rows, "cols": cols, "vals": vals, "b": b, "d": d, "blocks": blocks, "x0": x0}


def _triplets(sysd: dict) -> list[tuple[int, int, float]]:
    return list(zip(sysd["rows"].tolist(), sysd["cols"].tolist(), sysd["vals"].tolist()))


def _save_csv(path: str, a: np.ndarray) -> str:
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
    return path


def _save_triplets(path: str, sysd: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,value\n")
        fh.writelines(f"{r},{c},{v!r}\n" for r, c, v in _triplets(sysd))
    return path


def _save_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------- checks


def _plan_problem(plan, inst: dict, tol: float, ref_cost: float | None) -> str | None:
    """Independent check of a transport plan; None when it passes.

    A plan within ``tol`` of the marginals is within tol * max C of the
    reference cost.
    """
    plan = np.asarray(plan, dtype=np.float64)
    if plan.shape != inst["cost"].shape:
        return f"plan shape {plan.shape}"
    if not np.all(np.isfinite(plan)) or np.any(plan < 0.0):
        return "plan has non-finite or negative entries"
    viol = float(np.abs(plan.sum(axis=1) - inst["p"]).sum() + np.abs(plan.sum(axis=0) - inst["q"]).sum())
    if not viol <= tol:
        return f"marginal violation {viol:.3e} > tol {tol:g}"
    if ref_cost is not None:
        cost = float(np.sum(inst["cost"] * plan))
        if not abs(cost - ref_cost) <= tol * float(inst["cost"].max()):
            return f"cost {cost!r} differs from reference {ref_cost!r}"
    return None


def _vector_problem(x, sysd: dict, tol: float | None) -> str | None:
    """Independent check of a system iterate; the violation only when ``tol``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (sysd["d"],):
        return f"iterate shape {x.shape}"
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        return "iterate has non-finite or nonpositive entries"
    if tol is not None:
        ax = np.bincount(sysd["rows"], weights=sysd["vals"] * x[sysd["cols"]], minlength=sysd["b"].size)
        viol = float(np.abs(ax - sysd["b"]).sum())
        if not viol <= tol:
            return f"constraint violation {viol:.3e} > tol {tol:g}"
    return None


def _ot_check(inst: dict, tol: float, ref_cost: float | None):
    """Check for a report on an OT instance; iterates may be flat (smd)."""

    def check(report):
        plan = np.asarray(report.final_iterate).reshape(inst["cost"].shape)
        if report.stop_reason == "converged":
            return "converged", _plan_problem(plan, inst, tol, ref_cost)
        if np.all(np.isfinite(plan)) and np.all(plan >= 0.0):
            return report.stop_reason, None
        return report.stop_reason, "last iterate has non-finite or negative entries"

    return check


def _system_check(sysd: dict, tol: float):
    def check(report):
        tol_if = tol if report.stop_reason == "converged" else None
        return report.stop_reason, _vector_problem(report.final_iterate, sysd, tol_if)

    return check


def _ot_problem(pk, inst: dict):
    return pk.OTProblem(cost=inst["cost"], gamma=inst["gamma"], p=inst["p"], q=inst["q"])


def _reference_cost(pk, problem, tol: float = REF_TOL) -> float:
    report = pk.solve(problem, pk.SolverConfig(method="sinkhorn", tol=tol, max_iter=1_000_000))
    if report.stop_reason != "converged":
        raise RuntimeError(f"reference sinkhorn solve ended {report.stop_reason}")
    return float(np.sum(problem.cost * report.final_iterate))


def _solve_job(pk, method, name, problem, inst, ref_cost, expect=CONVERGED) -> Job:
    cfg = pk.SolverConfig(method=method, tol=TOL)
    # acc_pinkhorn is checked for feasibility only: its convex-combination
    # iterates leave the exp(u - C/gamma + v) family, so its cost differs
    ref = None if method == "acc_pinkhorn" else ref_cost
    return Job(f"{method}/{name}", lambda: pk.solve(problem, cfg), _ot_check(inst, TOL, ref), expect)


# ---------------------------------------------------------------- dense_scaling

DENSE_N, DENSE_CLOUDS, DENSE_GAMMA = 80, 12, 0.02
HARD_SHAPE, HARD_GAMMA, HARD_SPACING = (60, 80), 0.02, 5.0  # cross-cluster C/gamma >= 800


def dense_generate(seed: int, workdir: str) -> dict:
    inst = {f"cloud{i}": point_cloud(_rng(seed, 1, i), DENSE_N, DENSE_N, DENSE_GAMMA) for i in range(DENSE_CLOUDS)}
    inst["hard"] = clustered_cloud(_rng(seed, 2, 0), *HARD_SHAPE, HARD_GAMMA, HARD_SPACING)
    return {"ot": inst}


def dense_build(pk, raw: dict) -> dict:
    return {"problems": {name: _ot_problem(pk, inst) for name, inst in raw["ot"].items()}}


def dense_prepare(pk, raw: dict, objs: dict, workdir: str) -> list[Job]:
    jobs = []
    for name, inst in raw["ot"].items():
        problem = objs["problems"][name]
        ref = _reference_cost(pk, problem)
        for method in ("sinkhorn", "pinkhorn", "acc_pinkhorn"):
            # known failure: acc_pinkhorn's primal exp(-C/gamma) underflows
            expect = ("numeric_failure",) if (name == "hard" and method == "acc_pinkhorn") else CONVERGED
            jobs.append(_solve_job(pk, method, name, problem, inst, ref, expect))
    return jobs


# ---------------------------------------------------------------- coordinate

GREEN_N, GREEN_CLOUDS, GREEN_GAMMA = 20, 20, 0.15
SMD_OT_N, SMD_OT_COUNT, SMD_OT_GAMMA = 120, 4, 0.05
SYS_D, SYS_BLOCKS, SYS_SUPPORT = 2000, 4, 50
SYS_BINARY, SYS_COEF3 = 12, 2  # systems with 0/1 rows, systems with coefficients in [1, 3]
# cyclic SMD runs on the OT systems; the 0/1 block systems take the two
# samplings that add selection work
BINARY_SAMPLINGS = ("greedy", "uniform")
COEF3_SAMPLINGS = ("cyclic", "greedy", "uniform")


def coord_generate(seed: int, workdir: str) -> dict:
    green = {f"cloud{i}": point_cloud(_rng(seed, 3, i), GREEN_N, GREEN_N, GREEN_GAMMA) for i in range(GREEN_CLOUDS)}
    smd_ot = {f"ot{i}": point_cloud(_rng(seed, 4, i), SMD_OT_N, SMD_OT_N, SMD_OT_GAMMA) for i in range(SMD_OT_COUNT)}
    for inst in smd_ot.values():
        inst["x0"] = np.exp(-inst["cost"] / inst["gamma"]).reshape(-1)
    systems = {}
    for i in range(SYS_BINARY + SYS_COEF3):
        coef = 1.0 if i < SYS_BINARY else 3.0
        sysd = block_system(_rng(seed, 5, i), SYS_D, SYS_BLOCKS, SYS_SUPPORT, coef)
        sysd["triplets"] = _triplets(sysd)
        systems[f"bin{i}" if coef == 1.0 else f"coef3_{i}"] = sysd
    return {"green": green, "smd_ot": smd_ot, "systems": systems}


def coord_build(pk, raw: dict) -> dict:
    green = {name: _ot_problem(pk, inst) for name, inst in raw["green"].items()}
    smd_problems = {name: _ot_problem(pk, inst) for name, inst in raw["smd_ot"].items()}
    smd_systems = {name: pk.as_constraint_system(problem) for name, problem in smd_problems.items()}
    systems = {
        name: pk.ConstraintSystem.from_triplets(s["triplets"], s["b"], dimension=s["d"], blocks=s["blocks"])
        for name, s in raw["systems"].items()
    }
    return {"green": green, "smd_problems": smd_problems, "smd_systems": smd_systems, "systems": systems}


def coord_prepare(pk, raw: dict, objs: dict, workdir: str) -> list[Job]:
    jobs = []
    for name, inst in raw["green"].items():
        problem = objs["green"][name]
        jobs.append(_solve_job(pk, "greenkhorn", name, problem, inst, _reference_cost(pk, problem)))
    for name, inst in raw["smd_ot"].items():
        system, x0 = objs["smd_systems"][name], inst["x0"]
        cfg = pk.SolverConfig(method="smd", tol=TOL)
        ref = _reference_cost(pk, objs["smd_problems"][name])
        call = lambda system=system, x0=x0, cfg=cfg: pk.solve_smd(system, x0, cfg)
        jobs.append(Job(f"smd/{name}", call, _ot_check(inst, TOL, ref)))
    for name, sysd in raw["systems"].items():
        system = objs["systems"][name]
        known = name.startswith("coef3")
        for sampling in COEF3_SAMPLINGS if known else BINARY_SAMPLINGS:
            cfg = pk.SolverConfig(
                method="smd", sampling=sampling, tol=TOL, max_iter=SMD_FAIL_MAX_ITER if known else 100_000
            )
            expect = SMD_DEFECT if known else CONVERGED
            call = lambda system=system, x0=sysd["x0"], cfg=cfg: pk.solve_smd(system, x0, cfg)
            jobs.append(Job(f"smd_{sampling}/{name}", call, _system_check(sysd, TOL), expect))
    return jobs


# ---------------------------------------------------------------- cli_roundtrip

CLI_N, CLI_SOLVES = 120, 32
CLI_D, CLI_BLOCKS, CLI_SUPPORT = 2000, 4, 50
CLI_BINARY, CLI_COEF3 = 9, 2


def cli_generate(seed: int, workdir: str) -> dict:
    solves = {}
    for i in range(CLI_SOLVES):
        inst = uniform_cost(_rng(seed, 6, i), CLI_N)
        inst["files"] = {
            k: _save_csv(os.path.join(workdir, f"u{i}.{k}.csv"), inst[k]) for k in ("cost", "p", "q")
        }
        solves[f"u{i}"] = inst
    systems = {}
    for i in range(CLI_BINARY + CLI_COEF3):
        coef = 1.0 if i < CLI_BINARY else 3.0
        sysd = block_system(_rng(seed, 7, i), CLI_D, CLI_BLOCKS, CLI_SUPPORT, coef)
        name = f"bin{i}" if coef == 1.0 else f"coef3_{i}"
        sysd["files"] = {
            "matrix": _save_triplets(os.path.join(workdir, f"{name}.A.csv"), sysd),
            "b": _save_csv(os.path.join(workdir, f"{name}.b.csv"), sysd["b"]),
            "blocks": _save_json(os.path.join(workdir, f"{name}.blocks.json"), sysd["blocks"]),
            "x0": _save_csv(os.path.join(workdir, f"{name}.x0.csv"), sysd["x0"]),
        }
        systems[name] = sysd
    return {"solves": solves, "systems": systems}


def cli_build(pk, raw: dict) -> dict:
    return {}  # the CLI reads and builds everything inside each job


def _cli_outputs(workdir: str, key: str) -> dict:
    stem = os.path.join(workdir, key.replace("/", "."))
    return {"out": stem + ".out.csv", "log": stem + ".log.csv", "summary": stem + ".summary.json"}


def _read_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _consume(outs: dict, check):
    """Run ``check`` on a CLI job's output files, then delete them.

    Deleting keeps a later pass from checking files an earlier pass wrote.
    """

    def wrapped(code):
        try:
            return check(code)
        finally:
            for path in outs.values():
                if os.path.exists(path):
                    os.remove(path)

    return wrapped


def _telemetry_problem(path: str) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    return None if header == "iter,objective,violation_l1,time_ms" else f"telemetry header {header!r}"


def _cli_solve_job(pk, name: str, inst: dict, rounded: bool, workdir: str) -> Job:
    key = f"cli_solve{'_round' if rounded else ''}/{name}"
    outs = _cli_outputs(workdir, key)
    f = inst["files"]
    argv = ["solve", "--cost", f["cost"], "--p", f["p"], "--q", f["q"], "--gamma", repr(inst["gamma"])]
    argv += ["--out", outs["out"], "--log", outs["log"], "--summary", outs["summary"]]
    if rounded:
        argv.append("--round")
    # the CLI must write exactly the plan the library computes
    problem = _ot_problem(pk, inst)
    expected = pk.solve(problem, pk.SolverConfig(method="sinkhorn", tol=CLI_TOL)).final_iterate
    if rounded:
        expected = pk.round_to_feasible(problem, expected)
    ref_cost = _reference_cost(pk, problem, tol=CLI_REF_TOL)

    def check(code):
        summary = _read_summary(outs["summary"])
        reason = summary["stop_reason"]
        if code != (0 if reason == "converged" else 2):
            return reason, f"exit code {code} for stop reason {reason}"
        plan = np.loadtxt(outs["out"], delimiter=",", ndmin=2)
        if not np.array_equal(plan, expected):
            return reason, "written plan does not re-read bit for bit"
        cost = float(np.sum(inst["cost"] * plan))
        if not abs(summary["transport_cost"] - cost) <= 1e-12 * abs(cost):
            return reason, f"summary transport_cost {summary['transport_cost']!r} != recomputed {cost!r}"
        return reason, _plan_problem(plan, inst, CLI_TOL, ref_cost) or _telemetry_problem(outs["log"])

    return Job(key, lambda: pk.cli.main(argv), _consume(outs, check))


def _cli_system_job(pk, name: str, sysd: dict, sampling: str, workdir: str) -> Job:
    key = f"cli_system_{sampling}/{name}"
    outs = _cli_outputs(workdir, key)
    f = sysd["files"]
    known = name.startswith("coef3")
    argv = ["system", "--matrix", f["matrix"], "--b", f["b"], "--blocks", f["blocks"], "--x0", f["x0"]]
    argv += ["--sampling", sampling]
    argv += ["--tol", repr(CLI_TOL), "--out", outs["out"], "--log", outs["log"], "--summary", outs["summary"]]
    if known:
        argv += ["--max-iter", str(CLI_FAIL_MAX_ITER)]

    def check(code):
        reason = _read_summary(outs["summary"])["stop_reason"]
        if code != (0 if reason == "converged" else 2):
            return reason, f"exit code {code} for stop reason {reason}"
        x = np.loadtxt(outs["out"], ndmin=1)
        tol = CLI_TOL if reason == "converged" else None
        return reason, _vector_problem(x, sysd, tol) or _telemetry_problem(outs["log"])

    return Job(key, lambda: pk.cli.main(argv), _consume(outs, check), SMD_DEFECT if known else CONVERGED)


def cli_prepare(pk, raw: dict, objs: dict, workdir: str) -> list[Job]:
    jobs = [
        _cli_solve_job(pk, name, inst, rounded=i % 2 == 1, workdir=workdir)
        for i, (name, inst) in enumerate(raw["solves"].items())
    ]
    for name, sysd in raw["systems"].items():
        samplings = ("cyclic",) if name.startswith("coef3") else ("cyclic", "greedy")
        jobs += [_cli_system_job(pk, name, sysd, sampling, workdir) for sampling in samplings]
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_roundtrip", cli_generate, cli_build, cli_prepare),
        Workload("dense_scaling", dense_generate, dense_build, dense_prepare),
        Workload("coordinate", coord_generate, coord_build, coord_prepare),
    )
}

"""Command line front end: solve, system and check subcommands.

File formats are deliberately plain: dense matrices as headerless CSV
(row-major), vectors as one value per line or one comma-separated line,
sparse systems as triplet CSV with header ``row,col,value``.  Floats are
written with 17 significant digits so a written plan re-reads to the same
values.  Exit codes: 0 converged (or all checks passed), 1 input error,
2 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from contextlib import contextmanager
from itertools import chain, repeat

import numpy as np

from .checks import run_checks
from .otx import OTProblem, round_to_feasible, transport_cost
from .penalty import ConstraintSystem
from .solvers import METHODS, SAMPLINGS, SolverConfig, solve, solve_smd

__all__ = ["CliInputError", "main", "app"]

_TRIPLET_HEADER = ("row", "col", "value")
_TRIPLET_DTYPE = np.dtype([("row", np.intp), ("col", np.intp), ("value", np.float64)])
_FLOAT = "%.17g"  # 17 significant digits re-read to the same double
_TELEMETRY_LINE = ",".join(["%s"] + [_FLOAT] * 3) + "\n"


class CliInputError(Exception):
    """Bad command line usage or malformed input data; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliInputError(message)


@contextmanager
def _reading(path: str):
    """An open text file; failing to open, read or decode it is an input error."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc


def _parse(path: str, allow_triplets: bool):
    """Read a CSV file once, its non-blank lines through numpy's parser.

    Returns ``(triplets, table)``: a float matrix, or (row, col, value)
    records when ``allow_triplets`` and the first line is the triplet header.
    Only when the parse fails does a rescan name the first bad line.
    """
    with _reading(path) as handle:
        lines = (line for line in handle if not line.isspace())
        first = next(lines, None)
        if first is None:
            raise CliInputError(f"{path}: no data rows")
        header = tuple(cell.strip().lower() for cell in first.split(","))
        triplets = allow_triplets and header == _TRIPLET_HEADER
        if triplets:
            first = next(lines, None)
            if first is None:
                raise CliInputError(f"{path}: triplet file has a header but no entries")
        dtype, ndmin = (_TRIPLET_DTYPE, 1) if triplets else (np.float64, 2)
        try:
            table = np.loadtxt(chain((first,), lines), dtype, delimiter=",", comments=None, ndmin=ndmin)
        except UnicodeDecodeError:
            raise  # a read error, not a bad cell
        except ValueError as exc:
            raise _line_error(path, triplets, exc) from exc
    return triplets, table


def _line_error(path: str, triplets: bool, exc: ValueError) -> CliInputError:
    """Name the first data line that int() and float() do not read as the format.

    A dense line holds floats, as many as the first line; a triplet line an
    int, an int and a float.  A cell float() reads but numpy does not (digit
    grouping, non-ASCII digits) is named at the data row numpy's message
    ``exc`` gives, counted from 0; without one the message names no line.
    """
    reason = "bad triplet" if triplets else "not a number"
    rejected = re.fullmatch(r"(.*) at row (\d+), column \d+\.", str(exc))
    width = None
    with _reading(path) as handle:
        lines = ((n, line) for n, line in enumerate(handle, start=1) if not line.isspace())
        if triplets:
            next(lines, None)  # the header
        for row, (lineno, line) in enumerate(lines):
            cells = [cell.strip() for cell in line.split(",")]
            if triplets and len(cells) != 3:
                return CliInputError(f"{path}:{lineno}: expected row,col,value")
            try:
                for kind, cell in zip((int, int, float) if triplets else repeat(float), cells):
                    kind(cell)
            except ValueError as cell_exc:
                return CliInputError(f"{path}:{lineno}: {reason}: {cell_exc}")
            width = width or len(cells)
            if len(cells) != width:
                return CliInputError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
            if rejected and row == int(rejected[2]):
                return CliInputError(f"{path}:{lineno}: {reason}: {rejected[1]}")
    return CliInputError(f"{path}: {reason}: {exc}")


def read_matrix_csv(path: str) -> np.ndarray:
    """Dense headerless CSV, one matrix row per line; blank lines are skipped."""
    return _parse(path, allow_triplets=False)[1]


def read_vector_csv(path: str) -> np.ndarray:
    """Vector CSV: one value per line, or a single comma-separated line."""
    return read_matrix_csv(path).reshape(-1)


def read_system_csv(path: str):
    """Dense or triplet constraint matrix; triplet files start with row,col,value.

    Returns the entries ``(rows, cols, values, n_rows, n_cols)`` with integer
    ``rows`` and ``cols``; a dense matrix gives its nonzeros and its shape.
    """
    triplets, table = _parse(path, allow_triplets=True)
    if not triplets:
        rows, cols = np.nonzero(table)
        return rows, cols, table[rows, cols], *table.shape
    rows, cols = table["row"], table["col"]
    return rows, cols, table["value"], int(rows.max()) + 1, int(cols.max()) + 1


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    line = ",".join([_FLOAT] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        for row in matrix:
            handle.write(line % tuple(row.tolist()))


def write_vector_csv(path: str, vector: np.ndarray) -> None:
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(((_FLOAT + "\n") * vector.size) % tuple(vector.tolist()))


def write_telemetry_csv(path: str, trace) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("iter,objective,violation_l1,time_ms\n")
        handle.writelines(
            _TELEMETRY_LINE % (e.iteration, e.objective, e.violation_l1, e.time_ms) for e in trace
        )


def _write_summary(path: str | None, summary: dict) -> None:
    text = json.dumps(summary, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _parse_blocks(value: str):
    """Blocks given inline as JSON (starts with '[') or as a path to a JSON file."""
    if value.lstrip().startswith("["):
        source, text = "--blocks", value
    else:
        source = value
        with _reading(value) as handle:
            text = handle.read()
    try:
        blocks = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{source}: invalid JSON: {exc}") from exc
    # a JSON float, bool or null is not a row index, even 1.0
    if not isinstance(blocks, list) or not all(
        isinstance(block, list) and all(type(i) is int for i in block) for block in blocks
    ):
        raise CliInputError(f"{source}: expected a list of lists of row indices")
    return blocks


def _solver_config(args, method: str) -> SolverConfig:
    try:
        return SolverConfig(
            method=method,
            eta=args.eta,
            sampling=args.sampling,
            tol=args.tol,
            max_iter=args.max_iter,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _finish(args, report, summary: dict, write_solution, solution) -> int:
    """Write the solution (--out), the telemetry (--log) and the summary; return the exit code."""
    if args.out:
        write_solution(args.out, solution)
    if args.log:
        write_telemetry_csv(args.log, report.trace)
    _write_summary(args.summary, summary)
    return 0 if report.stop_reason == "converged" else 2


def cmd_solve(args) -> int:
    cost = read_matrix_csv(args.cost)
    p = read_vector_csv(args.p)
    q = read_vector_csv(args.q)
    try:
        problem = OTProblem(cost=cost, gamma=args.gamma, p=p, q=q)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    cfg = _solver_config(args, args.method)
    report = solve(problem, cfg)
    plan = report.final_iterate
    if args.round:
        plan = round_to_feasible(problem, plan)
    summary = {
        "method": cfg.method,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "final_violation": report.trace[-1].violation_l1,
        "transport_cost": transport_cost(problem, plan),
        "gamma": problem.gamma,
    }
    return _finish(args, report, summary, write_matrix_csv, plan)


def cmd_system(args) -> int:
    rows, cols, values, n_rows, n_cols = read_system_csv(args.matrix)
    b = read_vector_csv(args.b)
    blocks = _parse_blocks(args.blocks) if args.blocks else None
    if b.size != n_rows:
        raise CliInputError(f"b has {b.size} entries for {n_rows} matrix rows")
    try:
        system = ConstraintSystem(rows, cols, values, b, n_cols, blocks)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if args.x0:
        x0 = read_vector_csv(args.x0)
    else:
        x0 = np.ones(system.dimension)
    cfg = _solver_config(args, "smd")
    try:
        report = solve_smd(system, x0, cfg)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    summary = {
        "method": "smd",
        "sampling": cfg.sampling,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "final_violation": report.trace[-1].violation_l1,
    }
    return _finish(args, report, summary, write_vector_csv, report.final_iterate)


def cmd_check(args) -> int:
    if args.seed < 0:
        raise CliInputError("seed must be a nonnegative integer")
    results = run_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _add_solver_flags(sub) -> None:
    sub.add_argument("--eta", type=float, default=None, help="stepsize; default per method")
    sub.add_argument(
        "--sampling", choices=SAMPLINGS, default="cyclic", help="block selection rule"
    )
    sub.add_argument("--tol", type=float, default=1e-8, help="l1 violation threshold")
    sub.add_argument("--max-iter", type=int, default=100_000, help="iteration cap")
    sub.add_argument("--seed", type=int, default=0, help="seed for uniform sampling")


def _add_output_flags(sub) -> None:
    sub.add_argument("--log", default=None, help="telemetry CSV output path")
    sub.add_argument("--out", default=None, help="solution CSV output path")
    sub.add_argument(
        "--summary", default=None, help="summary JSON path (default: print to stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pinkhorn", description="Entropic transport and KL penalty solvers")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("solve", help="solve an entropic optimal transport instance")
    sp.add_argument("--cost", required=True, help="cost matrix CSV")
    sp.add_argument("--p", required=True, help="row marginal CSV")
    sp.add_argument("--q", required=True, help="column marginal CSV")
    sp.add_argument("--gamma", type=float, required=True, help="entropic regularization")
    sp.add_argument("--method", choices=METHODS, default="sinkhorn")
    sp.add_argument(
        "--round",
        action="store_true",
        help="round the output plan to exact marginals before writing",
    )
    _add_solver_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("system", help="solve a nonnegative linear system Ax = b")
    sp.add_argument("--matrix", required=True, help="dense CSV or row,col,value triplet CSV")
    sp.add_argument("--b", required=True, help="right-hand side CSV (positive entries)")
    sp.add_argument(
        "--blocks", default=None, help="JSON list of row-index blocks, inline or a file path"
    )
    sp.add_argument("--x0", default=None, help="starting point CSV (default: all ones)")
    _add_solver_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_system)

    sp = subs.add_parser("check", help="run the oracle-backed invariant suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, once per process: no flag has a mutable default or an append action."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()

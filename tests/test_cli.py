"""Command line interface: file formats, subcommands, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinkhorn
from pinkhorn.cli import (
    main,
    read_matrix_csv,
    read_system_csv,
    read_vector_csv,
    write_matrix_csv,
    write_telemetry_csv,
    write_vector_csv,
)
from pinkhorn.solvers import TraceEntry


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def ot_files(tmp_path):
    """The symmetric 2x2 instance with gamma = 0.5."""
    return {
        "cost": write(tmp_path / "cost.csv", "0,1\n1,0\n"),
        "p": write(tmp_path / "p.csv", "0.5\n0.5\n"),
        "q": write(tmp_path / "q.csv", "0.5\n0.5\n"),
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFileFormats:
    def test_matrix_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        m = rng.random((4, 3)) * np.exp(rng.uniform(-30, 30, (4, 3)))
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), m)
        np.testing.assert_array_equal(read_matrix_csv(str(path)), m)

    def test_vector_roundtrip_and_single_line_form(self, tmp_path):
        v = np.array([1.5, 2.25, -3.125])
        path = tmp_path / "v.csv"
        write_vector_csv(str(path), v)
        np.testing.assert_array_equal(read_vector_csv(str(path)), v)
        inline = write(tmp_path / "inline.csv", "1.5,2.25,-3.125\n")
        np.testing.assert_array_equal(read_vector_csv(inline), v)

    def test_telemetry_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_telemetry_csv(
            str(path),
            [TraceEntry(0, 1.25, 2.5, 0.125), TraceEntry(1, 0.5, 1.0, 0.25)],
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,violation_l1,time_ms"
        assert lines[1] == "0,1.25,2.5,0.125"
        assert lines[2] == "1,0.5,1,0.25"

    def test_system_csv_dense_vs_triplets(self, tmp_path):
        dense = write(tmp_path / "dense.csv", "1,0\n0,2\n")
        kind, matrix = read_system_csv(dense)
        assert kind == "dense"
        np.testing.assert_array_equal(matrix, [[1.0, 0.0], [0.0, 2.0]])
        trip = write(tmp_path / "trip.csv", "row,col,value\n0,0,1\n1,2,2.5\n")
        kind, triplets, n_rows, n_cols = read_system_csv(trip)
        assert kind == "triplets"
        assert triplets == [(0, 0, 1.0), (1, 2, 2.5)]
        assert (n_rows, n_cols) == (2, 3)

    def test_malformed_inputs_report_location(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "1,2\n3,oops\n")
        with pytest.raises(Exception) as exc:
            read_matrix_csv(bad)
        assert "bad.csv:2" in str(exc.value)
        ragged = write(tmp_path / "ragged.csv", "1,2\n3\n")
        with pytest.raises(Exception) as exc:
            read_matrix_csv(ragged)
        assert "ragged.csv:2" in str(exc.value)
        short = write(tmp_path / "short.csv", "row,col,value\n0,0\n")
        with pytest.raises(Exception):
            read_system_csv(short)


class TestSolveCommand:
    def test_happy_path_summary(self, ot_files, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--cost", ot_files["cost"],
            "--p", ot_files["p"],
            "--q", ot_files["q"],
            "--gamma", "0.5",
        )
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == {
            "method", "iterations", "stop_reason", "final_violation",
            "transport_cost", "gamma",
        }
        assert summary["method"] == "sinkhorn"
        assert summary["stop_reason"] == "converged"
        assert summary["final_violation"] <= 1e-8
        assert abs(summary["transport_cost"] - 0.11920292202211755) <= 1e-6
        assert summary["gamma"] == 0.5

    def test_outputs_plan_and_telemetry(self, ot_files, capsys, tmp_path):
        plan_path = tmp_path / "plan.csv"
        log_path = tmp_path / "log.csv"
        summary_path = tmp_path / "summary.json"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--cost", ot_files["cost"],
            "--p", ot_files["p"],
            "--q", ot_files["q"],
            "--gamma", "0.5",
            "--method", "pinkhorn",
            "--out", str(plan_path),
            "--log", str(log_path),
            "--summary", str(summary_path),
        )
        assert code == 0
        assert out == ""  # summary went to the file instead
        summary = json.loads(summary_path.read_text())
        assert summary["method"] == "pinkhorn"
        plan = read_matrix_csv(str(plan_path))
        assert plan.shape == (2, 2)
        np.testing.assert_allclose(plan.sum(axis=1), [0.5, 0.5], atol=1e-8)
        lines = log_path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,violation_l1,time_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows][0] == 0
        viol = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(viol, viol[1:]))

    def test_round_flag_gives_exact_marginals(self, ot_files, capsys, tmp_path):
        plan_path = tmp_path / "plan.csv"
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--cost", ot_files["cost"],
            "--p", ot_files["p"],
            "--q", ot_files["q"],
            "--gamma", "0.5",
            "--round",
            "--out", str(plan_path),
        )
        assert code == 0
        plan = read_matrix_csv(str(plan_path))
        np.testing.assert_allclose(plan.sum(axis=1), [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), [0.5, 0.5], atol=1e-12)

    def test_non_convergence_exits_2(self, ot_files, capsys, tmp_path):
        p_skew = write(tmp_path / "p2.csv", "0.75\n0.25\n")
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--cost", ot_files["cost"],
            "--p", p_skew,
            "--q", ot_files["q"],
            "--gamma", "0.5",
            "--max-iter", "2",
        )
        assert code == 2
        assert json.loads(out)["stop_reason"] == "max_iter"

    def test_divergent_pinkhorn_exits_2(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.5, 1.5, 8)
        q = rng.uniform(0.5, 1.5, 8)
        cost = tmp_path / "cost8.csv"
        write_matrix_csv(str(cost), rng.random((8, 8)))
        p_path, q_path = tmp_path / "p8.csv", tmp_path / "q8.csv"
        write_vector_csv(str(p_path), p / p.sum())
        write_vector_csv(str(q_path), q / q.sum())
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--cost", str(cost),
            "--p", str(p_path),
            "--q", str(q_path),
            "--gamma", "0.1",
            "--method", "pinkhorn",
            "--eta", "3",
        )
        assert code == 2
        summary = json.loads(out)
        assert summary["stop_reason"] == "numeric_failure"
        assert np.isfinite(summary["final_violation"])

    def test_input_errors_exit_1(self, ot_files, capsys, tmp_path):
        # missing required flag: argparse errors are remapped to exit 1
        code, _, err = run_cli(
            capsys, "solve", "--cost", ot_files["cost"], "--p", ot_files["p"],
            "--q", ot_files["q"],
        )
        assert code == 1
        assert "error:" in err
        # unreadable file
        code, _, err = run_cli(
            capsys, "solve", "--cost", str(tmp_path / "nope.csv"),
            "--p", ot_files["p"], "--q", ot_files["q"], "--gamma", "1",
        )
        assert code == 1
        # invalid gamma
        code, _, err = run_cli(
            capsys, "solve", "--cost", ot_files["cost"], "--p", ot_files["p"],
            "--q", ot_files["q"], "--gamma", "-1",
        )
        assert code == 1
        assert "gamma" in err
        # marginals that do not sum to one
        badp = write(tmp_path / "badp.csv", "0.9\n0.9\n")
        code, _, err = run_cli(
            capsys, "solve", "--cost", ot_files["cost"], "--p", badp,
            "--q", ot_files["q"], "--gamma", "1",
        )
        assert code == 1


class TestSystemCommand:
    def test_dense_system_default_start(self, capsys, tmp_path):
        # one binary row over three coordinates; from all-ones the single
        # projection lands exactly on the constraint
        matrix = write(tmp_path / "a.csv", "1,1,1\n")
        b = write(tmp_path / "b.csv", "6\n")
        out_path = tmp_path / "x.csv"
        code, out, _ = run_cli(
            capsys, "system", "--matrix", matrix, "--b", b, "--out", str(out_path)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["method"] == "smd"
        assert summary["sampling"] == "cyclic"
        assert summary["stop_reason"] == "converged"
        assert summary["iterations"] == 1
        assert summary["final_violation"] <= 1e-8
        np.testing.assert_allclose(read_vector_csv(str(out_path)), [2.0, 2.0, 2.0], rtol=1e-12)

    def test_triplets_blocks_and_x0(self, capsys, tmp_path):
        matrix = write(
            tmp_path / "a.csv",
            "row,col,value\n0,0,1\n0,1,1\n1,2,1\n1,3,1\n2,0,1\n2,2,1\n3,1,1\n3,3,1\n",
        )
        b = write(tmp_path / "b.csv", "1\n1\n1\n1\n")
        x0 = write(tmp_path / "x0.csv", "0.3\n0.4\n0.2\n0.6\n")
        code, out, _ = run_cli(
            capsys,
            "system",
            "--matrix", matrix,
            "--b", b,
            "--x0", x0,
            "--blocks", "[[0, 1], [2, 3]]",
            "--sampling", "greedy",
            "--tol", "1e-10",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["sampling"] == "greedy"
        assert summary["stop_reason"] == "converged"
        assert summary["final_violation"] <= 1e-10

    def test_blocks_from_file(self, capsys, tmp_path):
        matrix = write(tmp_path / "a.csv", "1,1,0\n0,0,1\n")
        b = write(tmp_path / "b.csv", "2\n3\n")
        blocks = write(tmp_path / "blocks.json", "[[0], [1]]\n")
        code, out, _ = run_cli(
            capsys, "system", "--matrix", matrix, "--b", b, "--blocks", blocks
        )
        assert code == 0
        assert json.loads(out)["stop_reason"] == "converged"

    def test_error_paths(self, capsys, tmp_path):
        matrix = write(tmp_path / "a.csv", "1,1\n")
        b2 = write(tmp_path / "b2.csv", "1\n1\n")
        code, _, err = run_cli(capsys, "system", "--matrix", matrix, "--b", b2)
        assert code == 1  # b length does not match the dense row count
        b1 = write(tmp_path / "b1.csv", "2\n")
        badblocks = write(tmp_path / "bb.json", "{not json")
        code, _, err = run_cli(
            capsys, "system", "--matrix", matrix, "--b", b1, "--blocks", badblocks
        )
        assert code == 1
        assert "JSON" in err
        x0_bad = write(tmp_path / "x0.csv", "1\n1\n1\n")
        code, _, err = run_cli(
            capsys, "system", "--matrix", matrix, "--b", b1, "--x0", x0_bad
        )
        assert code == 1

    def test_negative_b_rejected(self, capsys, tmp_path):
        matrix = write(tmp_path / "a.csv", "1,1\n")
        b = write(tmp_path / "b.csv", "-2\n")
        code, _, err = run_cli(capsys, "system", "--matrix", matrix, "--b", b)
        assert code == 1
        assert "error:" in err


class TestBenchCommand:
    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        args = [
            "bench", "--n", "4", "--count", "2",
            "--methods", "sinkhorn,pinkhorn", "--seed", "11",
        ]
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b2.csv"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        lines1 = out1.read_text().strip().splitlines()
        lines2 = out2.read_text().strip().splitlines()
        assert lines1[0] == "instance,method,iterations,final_violation,time_ms"
        assert len(lines1) == 1 + 2 * 2
        # identical up to the timing column
        strip = lambda lines: [line.rsplit(",", 1)[0] for line in lines]
        assert strip(lines1) == strip(lines2)

    def test_stdout_default_and_bad_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--n", "3", "--count", "1", "--methods", "sinkhorn"
        )
        assert code == 0
        assert out.startswith("instance,method,")
        code, _, err = run_cli(
            capsys, "bench", "--n", "3", "--count", "1", "--methods", "simplex"
        )
        assert code == 1
        assert "unknown method" in err


class TestCheckCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "6/6 checks passed"
        assert sum("PASS" in line for line in lines) == 6

    def test_scaled_tolerances_fail(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--tol-scale", "1e-30")
        assert code == 1
        assert "FAIL" in out


def declared_console_script(name):
    """The ``module:attr`` target of ``name`` in pyproject's [project.scripts].

    A line-based reader, because ``tomllib`` needs Python 3.11 and the
    package supports 3.10.
    """
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table, "pyproject.toml declares no [project.scripts]"
    entry = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"', table.group(1), re.M)
    assert entry, f"pyproject.toml declares no {name!r} script"
    return entry.group(1)


def console_script_command(name):
    """How to run console script ``name``, and the environment to run it in.

    The installed executable when one is on PATH. Otherwise the declared
    ``module:attr`` target, called as a generated script calls it
    (``sys.exit(attr())``) in a fresh interpreter that imports the same
    pinkhorn package as this test run.
    """
    exe = shutil.which(name)
    if exe:
        return [exe], None
    module, _, attr = declared_console_script(name).partition(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    package_root = str(Path(pinkhorn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return [sys.executable, "-c", launcher], env


def test_console_script_end_to_end(tmp_path):
    command, env = console_script_command("pinkhorn")
    write(tmp_path / "cost.csv", "0,1\n1,0\n")
    write(tmp_path / "m.csv", "0.5\n0.5\n")
    proc = subprocess.run(
        [
            *command, "solve",
            "--cost", str(tmp_path / "cost.csv"),
            "--p", str(tmp_path / "m.csv"),
            "--q", str(tmp_path / "m.csv"),
            "--gamma", "0.5",
            "--summary", str(tmp_path / "s.json"),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["stop_reason"] == "converged"

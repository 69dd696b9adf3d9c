"""Command line interface: file formats, subcommands, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinkhorn
from pinkhorn import cli
from pinkhorn.cli import (
    CliInputError,
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
        rows, cols, values, n_rows, n_cols = read_system_csv(dense)
        assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0, 1], [0, 1], [1.0, 2.0])
        assert rows.dtype.kind == cols.dtype.kind == "i"
        assert (n_rows, n_cols) == (2, 2)
        trip = write(tmp_path / "trip.csv", "row,col,value\n0,0,1\n1,2,2.5\n")
        rows, cols, values, n_rows, n_cols = read_system_csv(trip)
        assert rows.tolist() == [0, 1]
        assert cols.tolist() == [0, 2]
        assert values.tolist() == [1.0, 2.5]
        assert rows.dtype.kind == cols.dtype.kind == "i"
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

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("row,col,value\n0,0,1\n0,1,1\n1,0,x\n", "4: bad triplet: could not convert string to float: 'x'"),
            ("row,col,value\n0,0,1\n1.5,1,2\n", "3: bad triplet: invalid literal for int() with base 10: '1.5'"),
            ("row,col,value\n0,0,1\n1,2.5,2\n", "3: bad triplet: invalid literal for int() with base 10: '2.5'"),
            ("row,col,value\n0,0,1\n0,1\n", "3: expected row,col,value"),
            ("row,col,value\n0,0,1,2\n", "2: expected row,col,value"),
            ("row,col,value\n\n0,0,1\n  \n1,1,oops\n", "5: bad triplet: could not convert string to float: 'oops'"),
            ("row,col,value\n\n", " triplet file has a header but no entries"),
            # int() reads "1_0", numpy does not: the line comes from numpy's row
            ("row,col,value\n\n0,0,1\n1,1_0,2\n", "4: bad triplet: could not convert string '1_0' to int64"),
        ],
    )
    def test_malformed_triplets_report_line(self, tmp_path, text, reason):
        path = write(tmp_path / "t.csv", text)
        with pytest.raises(CliInputError) as exc:
            read_system_csv(path)
        assert str(exc.value) == f"{path}:{reason}"

    def test_triplets_the_bulk_parser_rejects_name_the_file(self, tmp_path):
        # int() reads "1_0" as 10, numpy's parser rejects it: still an input error
        path = write(tmp_path / "t.csv", "row,col,value\n1_0,0,1\n")
        with pytest.raises(CliInputError, match=f"^{re.escape(path)}:2: bad triplet: "):
            read_system_csv(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("1,2\n3\n", "2: expected 2 columns, found 1"),
            ("1,2\n\n  \n3,4,5\n", "4: expected 2 columns, found 3"),
            ("1,2\n\n3, oops\n", "3: not a number: could not convert string to float: 'oops'"),
            ("1,,2\n", "1: not a number: could not convert string to float: ''"),
            ("\n \n", " no data rows"),
            ("1,2\n\n1_000,3\n", "3: not a number: could not convert string '1_000' to float64"),
        ],
    )
    def test_malformed_dense_rows_report_line(self, tmp_path, text, reason):
        path = write(tmp_path / "m.csv", text)
        for read in (read_matrix_csv, read_system_csv):
            with pytest.raises(CliInputError) as exc:
                read(path)
            assert str(exc.value) == f"{path}:{reason}"

    @pytest.mark.parametrize("cell", ["1_000", "\u0661"])
    def test_dense_cells_the_bulk_parser_rejects_name_the_file(self, tmp_path, capsys, cell):
        # float() reads digit grouping and non-ASCII digits, numpy's parser does not
        path = write(tmp_path / "m.csv", f"1,2\n3,{cell}\n")
        vector = write(tmp_path / "v.csv", f"0.5\n{cell}\n")
        for read, source in [(read_matrix_csv, path), (read_system_csv, path), (read_vector_csv, vector)]:
            with pytest.raises(CliInputError, match=f"^{re.escape(source)}:2: not a number: "):
                read(source)
        p = write(tmp_path / "p.csv", "0.5\n0.5\n")
        code, _, err = run_cli(capsys, "solve", "--cost", path, "--p", p, "--q", p, "--gamma", "1")
        assert code == 1
        assert err.startswith(f"error: {path}:2: not a number: ")

    def test_system_file_is_opened_once(self, tmp_path, monkeypatch):
        opened = []
        reading = cli._reading

        def counting(path):
            opened.append(path)
            return reading(path)

        monkeypatch.setattr(cli, "_reading", counting)
        dense = write(tmp_path / "d.csv", "1,0\n0,2\n")
        trip = write(tmp_path / "t.csv", "row,col,value\n0,0,1\n1,1,2\n")
        read_system_csv(dense)
        read_system_csv(trip)
        assert opened == [dense, trip]

    @pytest.mark.parametrize(
        "argv, body",
        [
            (["solve", "--cost", "{bad}", "--p", "{vec}", "--q", "{vec}", "--gamma", "1"], b"0,1\n\xff,0\n"),
            (["solve", "--cost", "{good}", "--p", "{bad}", "--q", "{vec}", "--gamma", "1"], b"0.5\n" * 5000 + b"\xff\n"),
            (["system", "--matrix", "{bad}", "--b", "{vec}"], b"row,col,value\n0,0,1\n1,1,\xff\n"),
            (["system", "--matrix", "{bad}", "--b", "{vec}"], b"\xfe,0\n0,1\n"),
            (["system", "--matrix", "{good}", "--b", "{vec}", "--blocks", "{bad}"], b'[[0], [\xff]]'),
        ],
        ids=["cost", "vector-past-first-buffer", "triplets", "dense-system", "blocks"],
    )
    def test_non_utf8_input_is_a_read_error(self, tmp_path, capsys, argv, body):
        bad = tmp_path / "bad"
        bad.write_bytes(body)
        files = {
            "bad": str(bad),
            "good": write(tmp_path / "good.csv", "0,1\n1,0\n"),
            "vec": write(tmp_path / "vec.csv", "0.5\n0.5\n"),
        }
        code, _, err = run_cli(capsys, *(arg.format(**files) for arg in argv))
        assert code == 1
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_and_line_endings(self, tmp_path, newline):
        lines = ["", "1.5, 2", "  ", "", "\t3,-4e-3 ", ""]
        dense = write(tmp_path / "d.csv", newline.join(lines))
        np.testing.assert_array_equal(read_matrix_csv(dense), [[1.5, 2.0], [3.0, -4e-3]])
        np.testing.assert_array_equal(read_vector_csv(dense), [1.5, 2.0, 3.0, -4e-3])
        lines = ["", "row,col,value", "0,1,2.5", " ", "2, 0 ,1e-3", ""]
        trip = tmp_path / "t.csv"
        trip.write_bytes(newline.join(lines).encode())
        rows, cols, values, n_rows, n_cols = read_system_csv(str(trip))
        assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0, 2], [1, 0], [2.5, 1e-3])
        assert (n_rows, n_cols) == (3, 2)

    def test_writers_keep_the_17_digit_format(self, tmp_path):
        # the reference is each float written as f"{float(v):.17g}"
        ref = lambda v: f"{float(v):.17g}"
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                   -1.7976931348623157e308, np.inf, -np.inf, 1.0, 3.0, -42.0, 0.1, 1 / 3]
        bits = np.random.default_rng(61).integers(0, 2**64, 186, dtype=np.uint64, endpoint=False)
        values = np.concatenate((special, bits.view(np.float64)))
        values = values[~np.isnan(values)]  # NaN compares unequal to itself
        matrix = values[: 10 * (values.size // 10)].reshape(-1, 10)
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), matrix)
        assert path.read_text() == "".join(",".join(map(ref, row)) + "\n" for row in matrix)
        back = read_matrix_csv(str(path))
        np.testing.assert_array_equal(back.view(np.int64), matrix.view(np.int64))
        write_vector_csv(str(path), values)
        assert path.read_text() == "".join(ref(v) + "\n" for v in values)
        np.testing.assert_array_equal(read_vector_csv(str(path)).view(np.int64), values.view(np.int64))
        write_matrix_csv(str(path), np.arange(6).reshape(2, 3))
        assert path.read_text() == "0,1,2\n3,4,5\n"
        trace = [TraceEntry(k, *values[3 * k : 3 * k + 3]) for k in range(values.size // 3)]
        write_telemetry_csv(str(path), trace)
        expected = "iter,objective,violation_l1,time_ms\n" + "".join(
            f"{e.iteration},{ref(e.objective)},{ref(e.violation_l1)},{ref(e.time_ms)}\n" for e in trace
        )
        assert path.read_text() == expected


BAD_ETA = "eta must be positive and finite (or None for the method default)"


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

    def test_round_flag_on_plan_with_zero_entries(self, ot_files, capsys, tmp_path):
        # exp(-1000) underflows, so the converged plan has zero entries
        cost = write(tmp_path / "far.csv", "0,1000\n1000,0\n")
        plan_path = tmp_path / "plan.csv"
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--cost", cost,
            "--p", ot_files["p"],
            "--q", ot_files["q"],
            "--gamma", "1",
            "--round",
            "--out", str(plan_path),
        )
        assert code == 0
        plan = read_matrix_csv(str(plan_path))
        np.testing.assert_array_equal(plan.sum(axis=1), [0.5, 0.5])
        np.testing.assert_array_equal(plan.sum(axis=0), [0.5, 0.5])

    @pytest.mark.parametrize("method, expected", [("greenkhorn", 0), ("acc_pinkhorn", 0), ("smd", 2)])
    def test_round_flag_where_the_kernel_overflows(self, ot_files, capsys, tmp_path, method, expected):
        # exp(800) overflows; smd's start exp(-C/gamma) / exp(800) has zero
        # entries, so it ends numeric_failure at iteration 0
        cost = write(tmp_path / "neg.csv", "-800,0\n0,-800\n")
        plan_path = tmp_path / "plan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(
                capsys,
                "solve",
                "--cost", cost,
                "--p", ot_files["p"],
                "--q", ot_files["q"],
                "--gamma", "1",
                "--method", method,
                "--round",
                "--out", str(plan_path),
            )
        assert code == expected
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

    def test_underflowed_smd_exits_2(self, ot_files, capsys, tmp_path):
        # exp(-1000) underflows, so smd has no positive start
        cost = write(tmp_path / "far.csv", "0,1000\n1000,0\n")
        plan_path = tmp_path / "plan.csv"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--cost", cost,
            "--p", ot_files["p"],
            "--q", ot_files["q"],
            "--gamma", "1",
            "--method", "smd",
            "--out", str(plan_path),
        )
        assert code == 2
        summary = json.loads(out)
        assert summary["stop_reason"] == "numeric_failure"
        assert summary["iterations"] == 0
        np.testing.assert_array_equal(read_matrix_csv(str(plan_path)), np.eye(2))

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tol", "0", "tol must be positive"),
            ("--max-iter", "0", "max_iter must be >= 1"),
            ("--eta", "inf", BAD_ETA),
            ("--eta", "nan", BAD_ETA),
            ("--eta", "0", BAD_ETA),
            ("--seed", "-1", "seed must be a nonnegative integer"),
        ],
    )
    def test_bad_solver_config_exits_1(self, ot_files, capsys, flag, value, message):
        code, out, err = run_cli(
            capsys, "solve", "--cost", ot_files["cost"], "--p", ot_files["p"],
            "--q", ot_files["q"], "--gamma", "1", flag, value,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_an_input_error_leaves_the_next_call_unchanged(self, ot_files, capsys, tmp_path):
        # main() reuses one parser: flags set by a call that fails must not
        # reach the next call
        plan = tmp_path / "plan.csv"
        base = ["solve", "--cost", ot_files["cost"], "--p", ot_files["p"], "--q", ot_files["q"], "--gamma", "0.5"]
        first = run_cli(capsys, *base, "--out", str(plan))
        written = plan.read_bytes()
        flags = ["--method", "pinkhorn", "--eta", "2", "--tol", "1e-3", "--max-iter", "7", "--round"]
        flags += ["--log", str(tmp_path / "log.csv"), "--summary", str(tmp_path / "s.json")]
        failing = [
            [*base, *flags, "--bogus"],  # fails in the parser, after every other flag
            [*base[:2], str(tmp_path / "nope.csv"), *base[3:], *flags],  # fails reading the cost
            ["system", "--matrix", ot_files["cost"], "--b", ot_files["p"], "--sampling", "greedy", "--x0", str(tmp_path / "nope.csv")],
        ]
        for argv in failing:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "") and "error: " in err
        assert first[0] == 0
        assert run_cli(capsys, *base, "--out", str(plan)) == first
        assert plan.read_bytes() == written
        assert not (tmp_path / "log.csv").exists() and not (tmp_path / "s.json").exists()
        assert cli._parser() is cli._parser()


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
        # 0.5 * 5e-324 rounds to 0, so row 0's inner product at x0 is 0
        halves = write(tmp_path / "h.csv", "0.5,0.5,0\n0,0.5,0.5\n")
        ones = write(tmp_path / "ones.csv", "1\n1\n")
        x0_tiny = write(tmp_path / "x0_tiny.csv", "5e-324\n5e-324\n1\n")
        code, out, err = run_cli(capsys, "system", "--matrix", halves, "--b", ones, "--x0", x0_tiny)
        assert code == 1
        assert out == ""
        assert err == "error: x0 gives a nonpositive inner product for some constraint\n"

    def test_dense_and_triplet_files_give_the_same_run(self, capsys, tmp_path):
        dense = write(tmp_path / "a.csv", "1,0,2\n0,0.5,0\n0,0,0.25\n")
        trip = write(tmp_path / "t.csv", "row,col,value\n2,2,0.25\n0,2,2\n1,1,0.5\n0,0,1\n")
        b = write(tmp_path / "b.csv", "3\n0.4\n0.25\n")
        results = []
        for matrix in (dense, trip):
            out = tmp_path / "x.csv"
            code, summary, _ = run_cli(
                capsys, "system", "--matrix", matrix, "--b", b, "--blocks", "[[0], [1, 2]]",
                "--out", str(out),
            )
            assert code == 0
            results.append((summary, out.read_bytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("blocks", ['[["a"], [1]]', "[[null], [1]]", "[[0.7], [1]]", "[[1.0], [0]]", "[[true], [0]]"])
    def test_blocks_entries_must_be_json_integers(self, capsys, tmp_path, blocks):
        matrix = write(tmp_path / "a.csv", "1,0\n0,1\n")
        b = write(tmp_path / "b.csv", "1\n2\n")
        code, _, err = run_cli(capsys, "system", "--matrix", matrix, "--b", b, "--blocks", blocks)
        assert code == 1
        assert err == "error: --blocks: expected a list of lists of row indices\n"

    @pytest.mark.parametrize("entry", ["100000000000000000000", "-100000000000000000000"])
    def test_blocks_entry_beyond_index_range_exits_1(self, capsys, tmp_path, entry):
        matrix = write(tmp_path / "a.csv", "1,0\n0,1\n")
        b = write(tmp_path / "b.csv", "1\n2\n")
        code, _, err = run_cli(capsys, "system", "--matrix", matrix, "--b", b, "--blocks", f"[[{entry}], [1]]")
        assert code == 1
        assert err.startswith("error: blocks must hold integer row indices: ")

    @pytest.mark.parametrize(
        "matrix, b, message",
        [
            ("1,1\n0,1\n", "1\n1\n1\n", "b has 3 entries for 2 matrix rows"),
            ("row,col,value\n0,0,1\n1,-1,1\n", "1\n1\n", "column indices must be nonnegative"),
            ("row,col,value\n0,0,1\n1,1,1\n0,0,2\n", "1\n1\n", "(row, column) entries must be distinct"),
        ],
        ids=["dense b length", "negative column", "repeated entry"],
    )
    def test_bad_matrix_messages_name_what_is_wrong(self, capsys, tmp_path, matrix, b, message):
        argv = ["system", "--matrix", write(tmp_path / "a.csv", matrix), "--b", write(tmp_path / "b.csv", b)]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-iter", "0", "max_iter must be >= 1"),
            ("--eta", "nan", BAD_ETA),
            ("--eta", "-1", BAD_ETA),
            ("--seed", "-1", "seed must be a nonnegative integer"),
        ],
    )
    def test_bad_solver_config_exits_1(self, capsys, tmp_path, flag, value, message):
        # system builds its config through the same _solver_config as solve, with method "smd"
        argv = ["system", "--matrix", write(tmp_path / "a.csv", "1,1\n"), "--b", write(tmp_path / "b.csv", "2\n")]
        assert run_cli(capsys, *argv, flag, value) == (1, "", f"error: {message}\n")

    def test_negative_b_rejected(self, capsys, tmp_path):
        matrix = write(tmp_path / "a.csv", "1,1\n")
        b = write(tmp_path / "b.csv", "-2\n")
        code, _, err = run_cli(capsys, "system", "--matrix", matrix, "--b", b)
        assert code == 1
        assert "error:" in err


class TestCheckCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "5/5 checks passed"
        assert sum("PASS" in line for line in lines) == 5

    def test_a_failing_check_exits_1(self, capsys, monkeypatch):
        failed = pinkhorn.CheckResult("projection_geometry", False, "forced")
        monkeypatch.setattr(pinkhorn.checks, "_check_projections", lambda rng: failed)
        code, out, _ = run_cli(capsys, "check")
        assert code == 1
        assert "FAIL" in out

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: seed must be a nonnegative integer\n")


def test_bench_is_no_longer_a_subcommand(capsys):
    code, out, err = run_cli(capsys, "bench", "--n", "3", "--count", "1", "--methods", "sinkhorn")
    assert (code, out) == (1, "")
    assert "invalid choice: 'bench'" in err and "Traceback" not in err


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
    # the subprocess meets the RuntimeWarning rule pytest applies here
    env = dict(os.environ if env is None else env, PYTHONWARNINGS="error::RuntimeWarning")
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

"""The outputs README.md shows are what its examples print."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from pinkhorn.cli import build_parser, main

README = Path(__file__).parents[1] / "README.md"


def section(title, level=3):
    """The text of README section ``title`` at heading ``level``, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n{'#' * level} {title}\n", 1)[1]
    return re.split(r"^#+ ", body, maxsplit=1, flags=re.M)[0]


def run_section(title, tmp_path, monkeypatch, capsys):
    """Run the section's first code block, a shell script, in ``tmp_path``.

    ``printf 'text' > file`` lines write their file; the ``pinkhorn`` line
    runs through ``cli.main``.  Returns the exit code, what it printed and
    the section's later code blocks as (language, body) pairs.
    """
    (lang, script), *shown = re.findall(r"^```(\w*)\n(.*?)^```", section(title), re.M | re.S)
    assert lang == "sh"
    monkeypatch.chdir(tmp_path)
    code = None
    for line in script.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv[0] == "printf":
            assert argv[2] == ">"
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"), encoding="utf-8")
        else:
            assert argv[0] == "pinkhorn" and code is None
            code = main(argv[1:])
    return code, capsys.readouterr().out, shown


def test_command_line_docs_name_the_parser_subcommands():
    """The usage block and the sections before "File formats" name each subcommand, in order."""
    [subs] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    text = README.read_text(encoding="utf-8")
    body = text.split("\n## Command line\n", 1)[1].split("\n### File formats\n", 1)[0]
    usage = re.search(r"^```\n(.*?)^```", body, re.M | re.S)[1]
    assert [line.split()[:2] for line in usage.splitlines()] == [["pinkhorn", cmd] for cmd in subs.choices]
    assert re.findall(r"^### (.*)$", body, re.M) == list(subs.choices)


@pytest.mark.parametrize("title", ["solve", "system"])
def test_summary_is_what_the_command_prints(title, tmp_path, monkeypatch, capsys):
    code, out, [(lang, summary)] = run_section(title, tmp_path, monkeypatch, capsys)
    assert code == 0
    assert lang == "json"
    assert out == summary


def test_check_lines_are_what_the_command_prints(tmp_path, monkeypatch, capsys):
    code, out, [(_, shown)] = run_section("check", tmp_path, monkeypatch, capsys)
    assert code == 0
    name_and_status = lambda text: [line.split()[:2] for line in text.splitlines()[:-1]]
    assert name_and_status(out) == name_and_status(shown)  # detail numbers left out
    assert out.splitlines()[-1] == shown.splitlines()[-1] == "5/5 checks passed"


def test_library_quickstart_prints_what_it_shows(capsys):
    """Each Python block, run in a fresh namespace, prints the output block after it."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", section("Quickstart (library)", level=2), re.M | re.S)
    assert [lang for lang, _ in blocks] == ["python", "text"] * 2
    for (_, code), (_, shown) in zip(blocks[::2], blocks[1::2]):
        exec(code, {})
        assert capsys.readouterr().out == shown

"""Byte-stable JSON documents and exit codes of ``cli.execute``.

The files under ``tests/golden`` were written by the CLI before the
scenario evolution was compiled into boundary-state arrays; any change to
a printed digit shows up here as a byte difference.
"""

import io
from pathlib import Path

import pytest

from weaktrace.cli import execute

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "weakvalues": ["weakvalues"],
    "trace": ["trace"],
    "trace-threshold-0.4": ["trace", "--threshold", "0.4"],
    "validate": ["validate"],
    "sweep-B": ["sweep", "--arm", "B", "--g", "0.5,0.1,0.01"],
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_json_matches_golden_bytes(fig, case, capsys):
    command, *options = CASES[case]
    assert execute([command, fig, *options, "--format", "json"]) == 0
    expected = (GOLDEN / f"{fig}-{case}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command", "fig1"],
        ["weakvalues"],
        ["sweep", "fig1", "--g", "0.1"],
        ["trace", "fig1", "--format", "yaml"],
    ],
)
def test_usage_error_exits_1(argv, capsys):
    assert execute(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize(
    "text",
    [
        "modes A B\npreselect 1@Q\npostselect 1@B\n",
        "modes A B\npreselect 1@A +\npostselect 1@B\n",
        "modes A B\npreselect 1/2@A\npostselect 1@B\n",
        "modes A B\nteleport A\npreselect 1@A\npostselect 1@B\n",
        "modes A B\npreselect nan@A\npostselect 1@B\n",
        "modes A B\npreselect 1/0@A\npostselect 1@B\n",
        "modes A B\npreselect 1@A\nstage s\nbeamsplitter A B inf\npostselect 1@B\n",
    ],
)
@pytest.mark.parametrize("command", ["weakvalues", "trace", "validate"])
def test_malformed_stdin_exits_2(command, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert execute([command, "-", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")


@pytest.mark.parametrize("command", ["weakvalues", "trace"])
def test_degenerate_postselection_exits_2(command, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("modes A B\npreselect 1@A\npostselect 1@B\n"))
    assert execute([command, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "weak value undefined" in captured.err

"""Byte-stable output and exit codes of ``cli.execute``.

The ``.json`` files under ``tests/golden`` were written by the CLI before
the scenario evolution was compiled into boundary-state arrays, the
``.txt`` files (the default table output, and ``builtin``'s canonical
text) before ``StateVector`` and ``Operator`` became plain records; any
change to a printed digit shows up here as a byte difference.  The one
later edit is ``fitted_shift_order`` in ``fig1-sweep-B.json``, from
``null`` to ``"exact"`` when JSON began to name non-numeric fitted orders.
The ``sweep-D`` and ``sweep-E`` files were written before a sweep read all
its strengths in one readout call.
"""

import gc
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktrace.cli import _json_text, build_parser, execute
from weaktrace.scendsl import builtin_scenario, serialize_scenario

from oracles import json_reference

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "weakvalues": ["weakvalues"],
    "trace": ["trace"],
    "trace-threshold-0.4": ["trace", "--threshold", "0.4"],
    "validate": ["validate"],
    "sweep-B": ["sweep", "--arm", "B", "--g", "0.5,0.1,0.01"],
    # The null arms print roundoff deviations, so any reordered sweep
    # arithmetic shows up as a byte difference.
    "sweep-D": ["sweep", "--arm", "D", "--g", "0.5,0.1,0.01,0"],
    "sweep-E": ["sweep", "--arm", "E", "--g", "0.5,0.1,0.01,0"],
}


def _assert_golden(argv, path, capsys):
    assert execute(argv) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_json_matches_golden_bytes(fig, case, capsys):
    command, *options = CASES[case]
    argv = [command, fig, *options, "--format", "json"]
    _assert_golden(argv, GOLDEN / f"{fig}-{case}.json", capsys)


@pytest.mark.parametrize("case", sorted(CASES) + ["builtin"])
@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_default_table_matches_golden_bytes(fig, case, capsys):
    command, *options = CASES.get(case, ["builtin"])
    _assert_golden([command, fig, *options], GOLDEN / f"{fig}-{case}.txt", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command", "fig1"],
        ["weakvalues"],
        ["sweep", "fig1", "--g", "0.1"],
        ["sweep", "fig1", "--arm", "B", "--g", "1e-13,1e-14"],
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
        "modes A B\npreselect 1e200@A + 1e200@B\npostselect 1@B\n",
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


def test_json_names_exact_and_unfittable_orders(capsys):
    argv = ["sweep", "fig1", "--arm", "B", "--g", "0.1,0", "--format", "json"]
    assert execute(argv) == 0
    (sweep,) = json.loads(capsys.readouterr().out)["sweeps"]
    assert sweep["fitted_shift_order"] == "exact"
    assert sweep["fitted_disturbance_order"] == "not fittable"
    execute(argv[:-2])
    table = capsys.readouterr().out
    assert "fitted shift order: exact" in table
    assert "fitted disturbance order: not fittable" in table


def _run(argv, capsys):
    code = execute(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reuse_carries_nothing_between_calls(capsys):
    sweep = ["sweep", "fig1", "--arm", "B", "--g", "0.5,0.1,0.01", "--format", "json"]
    sequence = [
        (["sweep", "fig1", "--g", "0.1"], None),
        (["--help"], None),
        (["trace", "fig2", "--threshold", "0.4", "--format", "json"], "fig2-trace-threshold-0.4.json"),
        (["trace", "fig2", "--format", "json"], "fig2-trace.json"),
        (sweep + ["--boundary", "1"], None),
        (sweep, "fig1-sweep-B.json"),
    ]
    lone = []
    for argv, _ in sequence:
        build_parser.cache_clear()
        lone.append(_run(argv, capsys))
    build_parser.cache_clear()
    for (argv, golden), expected in zip(sequence, lone):
        result = _run(argv, capsys)
        assert result == expected, argv
        if golden is not None:
            assert result == (0, (GOLDEN / golden).read_text(encoding="utf-8"), "")
    assert build_parser.cache_info().misses == 1
    assert lone[0][0] == 1 and lone[0][2].startswith("usage error:")
    assert lone[1][0] == 0 and lone[1][1].startswith("usage: weaktrace")
    assert '"boundary": 1,' in lone[4][1]


@pytest.mark.parametrize(
    "text",
    [
        "modes A B\n# note\rpolarization on\npreselect 1@A\npostselect 1@A\n",
        serialize_scenario(builtin_scenario("fig1")).replace("\n", "\r\n"),
    ],
    ids=["lone-cr-in-comment", "fig1-crlf"],
)
def test_file_and_stdin_give_one_answer(text, tmp_path, monkeypatch, capsys):
    path = tmp_path / "scenario.txt"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = _run(["validate", str(path)], capsys)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert (code, out.replace(str(path), "<stdin>"), err) == _run(["validate", "-"], capsys)
    assert code == 0


def _edge_floats() -> list[float]:
    """Non-finite values, signed zeros, the display floor and its neighbours, and the extremes."""
    floor = [
        x
        for v in (1e-12, -1e-12)
        for x in (v, math.nextafter(v, 0.0), math.nextafter(v, math.copysign(math.inf, v)))
    ]
    subnormal = [5e-324, -5e-324, 1e-310]
    large = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
    return [math.nan, math.inf, -math.inf, 0.0, -0.0, *floor, *subnormal, *large]


_JSON_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "\ud83d"]
)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(_edge_floats())
    | _JSON_STRINGS
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_JSON_STRINGS, children),
    max_leaves=30,
)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_stdlib_bytes(value):
    assert _json_text(value) == json_reference(value)


def test_json_writer_matches_stdlib_on_every_command(fig1, fig2, chains):
    for scenario in [fig1, fig2, *chains]:
        arm = scenario.canonical_slots()[0][0]
        ident = {"name": scenario.name, "sha256": "0" * 12}
        for argv in (
            ["weakvalues", "-"],
            ["trace", "-"],
            ["trace", "-", "--threshold", "0.4"],
            ["validate", "-"],
            ["sweep", "-", "--arm", arm, "--g", "0.5,0.1,0.01,0"],
        ):
            ns = build_parser().parse_args(argv)
            document, _ = ns.func(ns, scenario, ident)
            assert _json_text(document) == json_reference(document), (scenario.name, argv)


def test_json_answers_leave_no_cycle_garbage(capsys):
    """The stdlib's indenting encoder left 33 cyclic objects per answer for the collector."""
    commands = {
        "weakvalues": ["weakvalues", "fig1"],
        "trace": ["trace", "fig2"],
        "sweep": ["sweep", "fig1", "--arm", "B", "--g", "0.5,0.1"],
        "validate": ["validate", "fig2"],
    }
    for name, argv in commands.items():
        argv = argv + ["--format", "json"]
        assert execute(argv) == 0  # first use builds the parser and fills caches
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                execute(argv)
            assert gc.collect() == 0, name
        finally:
            gc.enable()
        capsys.readouterr()

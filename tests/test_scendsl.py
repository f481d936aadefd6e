import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktrace import optics, qstate, scendsl
from weaktrace.evolution import Scenario, Slot, Stage
from weaktrace.optics import ElementSpec, element_operator
from weaktrace.qstate import BasisDescriptor, StateVector, is_unitary_matrix
from weaktrace.scendsl import (
    BUILTIN_TEXTS,
    FIG2_TEXT,
    ScenarioParseError,
    builtin_scenario,
    format_angle,
    parse_angle,
    parse_scenario,
    serialize_scenario,
    validate,
)
from weaktrace.weakmeas import weak_value_table

from oracles import format_angle_reference, tokenize_reference


def test_each_element_applied_once(monkeypatch):
    """A parse checks each element once at its token and applies it once, in ``Scenario``,
    which looks up each operand's rows once."""
    checked, applied, looked_up = [], [], []
    original_check, original_apply = scendsl.check_element, optics.apply_element
    original_arm_indices = BasisDescriptor.arm_indices

    def counting_arm_indices(basis, arm):
        looked_up.append(arm)
        return original_arm_indices(basis, arm)

    def counting_check(spec, basis):
        checked.append(spec)
        original_check(spec, basis)

    def counting_apply(spec, basis, rows):
        applied.append(spec)
        original_apply(spec, basis, rows)

    def forbidden(spec, basis):
        raise AssertionError(f"element_operator({spec}) called during a parse")

    monkeypatch.setattr(scendsl, "check_element", counting_check)
    for module in [m for name, m in sys.modules.items() if name.startswith("weaktrace")]:
        for attr, value in list(vars(module).items()):
            if value is original_apply:
                monkeypatch.setattr(module, attr, counting_apply)
    monkeypatch.setattr(optics, "element_operator", forbidden)
    monkeypatch.setattr(BasisDescriptor, "arm_indices", counting_arm_indices)
    scenario = parse_scenario(FIG2_TEXT)
    elements = [spec for stage in scenario.stages for spec in stage.elements]
    assert len(elements) == 5
    assert checked == elements
    assert applied == elements
    assert looked_up == [arm for spec in elements for arm in spec.operands]
    assert len(looked_up) == 14


def test_stage_unitary_is_product_of_element_operators(fig2):
    for stage, matrix in zip(fig2.stages, fig2.stage_matrices, strict=True):
        expected = np.eye(fig2.basis.dimension, dtype=np.complex128)
        for spec in stage.elements:
            expected = element_operator(spec, fig2.basis).matrix @ expected
        np.testing.assert_array_equal(matrix, expected)
        assert is_unitary_matrix(matrix)


@pytest.mark.parametrize("name", sorted(BUILTIN_TEXTS))
def test_parse_checks_no_unitarity_and_calls_no_validate(name, monkeypatch):
    def forbidden(*args):
        raise AssertionError("invariant re-checked during a parse")

    monkeypatch.setattr(qstate, "is_unitary_matrix", forbidden)
    monkeypatch.setattr(scendsl, "validate", forbidden)
    scenario = parse_scenario(BUILTIN_TEXTS[name], name=name)
    assert scenario.name == name
    assert len(scenario.stage_matrices) == len(scenario.stages) == 3


def test_parse_constructs_one_scenario(monkeypatch):
    built = []
    original = scendsl.Scenario.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(scendsl.Scenario, "__post_init__", counting)
    scenario = parse_scenario(FIG2_TEXT, name="fig2")
    assert built == [scenario]


def _scaled(state, factor):
    return StateVector(state.basis, factor * state.amplitudes)


def _two_arms(arms):
    basis = BasisDescriptor(arms)
    state = StateVector(basis, [0.6, 0.8])
    return {
        "basis": basis, "stages": (), "preselect": state, "postselect": state,
        "adjacency": (), "coupling_slots": (),
    }


@pytest.mark.parametrize(
    "code, change",
    [
        ("normalization", lambda s: {"preselect": _scaled(s.preselect, 2.0)}),
        ("normalization", lambda s: {"postselect": _scaled(s.postselect, 0.5)}),
        ("normalization", lambda s: {"preselect": _scaled(s.preselect, 1e200)}),
        ("adjacency", lambda s: {"adjacency": s.adjacency + (("A", "Z"),)}),
        ("adjacency", lambda s: {"adjacency": s.adjacency + (("B", "B"),)}),
        ("slot", lambda s: {"coupling_slots": s.coupling_slots + (Slot("late", 4),)}),
        ("slot", lambda s: {"coupling_slots": s.coupling_slots + (Slot("A", 0),)}),
        ("stage", lambda s: {"stages": s.stages + s.stages[:1]}),
        ("label", lambda s: {"stages": s.stages + (Stage(""),)}),
        ("label", lambda s: {"stages": s.stages + (Stage("late stage"),)}),
        ("label", lambda s: _two_arms(("A", "B C"))),
        ("label", lambda s: _two_arms(("A", "SOURCE"))),
        ("label", lambda s: _two_arms(("A", "B:x"))),
        ("label", lambda s: {"coupling_slots": s.coupling_slots + (Slot("x#y", 1),)}),
    ],
    ids=[
        "preselect", "postselect", "overflow",
        "unknown-arm", "self-edge", "range", "duplicate",
        "duplicate-stage", "empty-stage", "spaced-stage", "spaced-arm", "sentinel-arm",
        "colon-arm", "hash-slot",
    ],
)
def test_validate_reports_broken_invariant(fig1, code, change):
    broken = replace(fig1, **change(fig1))
    assert [problem.code for problem in validate(broken)] == [code]


def _twin(arms=("A", "B"), **change):
    """A scenario built through the API on two arms, with ``change`` applied."""
    return Scenario(**{**_two_arms(arms), **change})


_HALF_A = StateVector(BasisDescriptor(("A", "B")), [0.5, 0.0])


@pytest.mark.parametrize(
    "text, twin",
    [
        ("modes A B\npreselect 1/2@A\npostselect 1@B\n", _twin(preselect=_HALF_A)),
        ("modes A B\nadjacency A Q\npreselect 1@A\npostselect 1@B\n",
         _twin(adjacency=(("A", "Q"),))),
        ("modes A B\nadjacency B B\npreselect 1@A\npostselect 1@B\n",
         _twin(adjacency=(("B", "B"),))),
        ("modes A B\npreselect 1@A\nstage s\nstage s\npostselect 1@B\n",
         _twin(stages=(Stage("s"), Stage("s")))),
        ("modes A B\nslot A\npreselect 1@A\nslot A\npostselect 1@B\n",
         _twin(coupling_slots=(Slot("A", 0), Slot("A", 0)))),
        ("modes A SOURCE\npreselect 1@A\npostselect 1@A\n", _twin(("A", "SOURCE"))),
        ("modes A B:x\npreselect 1@A\npostselect 1@A\n", _twin(("A", "B:x"))),
    ],
    ids=[
        "unnormalized-preselect", "unknown-adjacency-end", "self-edge",
        "duplicate-stage", "duplicate-slot", "sentinel-arm", "colon-arm",
    ],
)
def test_parser_and_validate_report_one_rule_alike(text, twin):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(text)
    assert [problem.message for problem in validate(twin)] == [info.value.reason]


def test_validate_reports_independent_faults():
    twin = _twin(preselect=_HALF_A, adjacency=(("B", "B"),))
    assert [problem.code for problem in validate(twin)] == ["normalization", "adjacency"]


@pytest.mark.parametrize("name", sorted(BUILTIN_TEXTS))
def test_validate_accepts_builtins(name):
    assert validate(builtin_scenario(name)) == []


_PI_ANGLES = st.builds(
    lambda sign, k, n: f"{sign}{'' if k == 1 else k}pi{'' if n == 1 else f'/{n}'}",
    st.sampled_from(["", "-"]),
    st.integers(1, 12),
    st.integers(1, 96),
)
_ANGLES = st.one_of(_PI_ANGLES, st.floats(-10.0, 10.0).map(repr), st.just("0"))
_NICE_PAIRS = [("1/sqrt2", "i/sqrt2"), ("-1/sqrt2", "1/sqrt2"), ("-i/sqrt2", "1/sqrt2")]


def _literal(z: complex) -> str:
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


@st.composite
def _state_terms(draw, modes, polarized):
    pair = draw(st.sampled_from(_NICE_PAIRS + [None]))
    if pair is None:
        theta = draw(st.floats(0.0, 2 * math.pi))
        phi = draw(st.floats(-math.pi, math.pi))
        pair = (_literal(complex(math.cos(theta))), _literal(cmath.rect(math.sin(theta), phi)))
    pols = [f":{draw(st.sampled_from('HV'))}" if polarized else "" for _ in modes]
    return " + ".join(f"{amp}@{mode}{pol}" for amp, mode, pol in zip(pair, modes, pols))


@st.composite
def _fig_shaped_texts(draw):
    """fig1 (polarization off) or fig2 (on) topology with drawn literals."""
    polarized = draw(st.booleans())
    split, inner, merge, phase, plate_b, plate_c = (draw(_ANGLES) for _ in range(6))
    plates = f"waveplate B {plate_b}\nwaveplate C {plate_c}\n" if polarized else ""
    return (
        "modes S A B C D E F\n"
        f"polarization {'on' if polarized else 'off'}\n"
        f"preselect {draw(_state_terms(('S', 'A'), polarized))}\n"
        f"stage split\nbeamsplitter S D A {split}\nslot D\n"
        f"stage inner-split\nbeamsplitter D C B {inner}\nphaseshifter A {phase}\n{plates}"
        "slot A\nslot B\nslot C\n"
        f"stage inner-merge\nbeamsplitter C B E F {merge}\nmirror E\nslot E\n"
        "adjacency SOURCE S\nadjacency A DETECTOR\nadjacency B E\n"
        f"postselect {draw(_state_terms(('A', 'E'), polarized))}\n"
    )


@given(_fig_shaped_texts())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip_is_bit_exact(text):
    scenario = parse_scenario(text)
    assert validate(scenario) == []
    assert all(is_unitary_matrix(matrix) for matrix in scenario.stage_matrices)
    serialized = serialize_scenario(scenario)
    again = parse_scenario(serialized)
    assert serialize_scenario(again) == serialized
    assert again.basis == scenario.basis
    assert again.coupling_slots == scenario.coupling_slots
    assert again.adjacency == scenario.adjacency
    for role in ("preselect", "postselect"):
        before, after = getattr(scenario, role), getattr(again, role)
        assert after.amplitudes.tobytes() == before.amplitudes.tobytes()
    assert [(s.label, s.elements) for s in again.stages] == [
        (s.label, s.elements) for s in scenario.stages
    ]
    assert again.stage_matrices.tobytes() == scenario.stage_matrices.tobytes()


@pytest.mark.parametrize("angle", [0.3, np.float64(0.3)], ids=["float", "numpy-float"])
def test_stage_added_through_api_round_trips(fig1, angle):
    """A stage is its element list, so serialization cannot drop its action."""
    mix = Stage("mix", (ElementSpec("beamsplitter", ("A", "E", "A", "E"), (angle,)),))
    scenario = replace(fig1, stages=fig1.stages + (mix,))
    assert validate(scenario) == []
    text = serialize_scenario(scenario)
    assert "stage mix\nbeamsplitter A E 0.3\n" in text
    again = parse_scenario(text)
    assert serialize_scenario(again) == text
    for new, old in zip(again.boundary_states, scenario.boundary_states, strict=True):
        assert new.tobytes() == old.tobytes()


def test_api_slot_order_reads_like_its_reparse(fig1):
    """Text writes slots in boundary order, so reversed slots keep one id and one table."""
    flipped = replace(fig1, coupling_slots=fig1.coupling_slots[::-1])
    again = parse_scenario(serialize_scenario(flipped))
    assert serialize_scenario(again) == serialize_scenario(flipped)
    arms = [[row.arm for row in weak_value_table(s)] for s in (flipped, again)]
    assert arms == [list("DCBAE")] * 2


def test_api_adjacency_is_stored_in_canonical_order(fig1):
    """Reversed edges and a reversed duplicate are one edge each, written as fig1 writes it."""
    flipped = replace(fig1, adjacency=[edge[::-1] for edge in fig1.adjacency[:1] + fig1.adjacency])
    assert flipped.adjacency == fig1.adjacency
    assert serialize_scenario(flipped) == serialize_scenario(fig1)


_BODY = "modes A B\npreselect 1@A\nstage s\n"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("modes A B\nteleport A\npreselect 1@A\npostselect 1@B\n", 2, 1),
        ("modes A B\npreselect 1/sqrt2@A + 1/sqrt2@Q\npostselect 1@B\n", 2, 23),
        (_BODY + "beamsplitter A B pi/x\npostselect 1@B\n", 4, 18),
        ("modes A B\npreselect 1@A +\npostselect 1@B\n", 2, 15),
        ("modes A B\npreselect nan@A\npostselect 1@B\n", 2, 11),
        ("modes A B\npreselect 1/0@A\npostselect 1@B\n", 2, 11),
        (_BODY + "beamsplitter A B inf\npostselect 1@B\n", 4, 18),
        (_BODY + "phaseshifter B pi/0\npostselect 1@B\n", 4, 16),
        ("modes A B\npreselect 1/2@A\npostselect 1@B\n", 2, 1),
        ("modes A B\nadjacency A Q\npreselect 1@A\npostselect 1@B\n", 2, 13),
        ("modes A B\nadjacency B B\npreselect 1@A\npostselect 1@B\n", 2, 11),
        ("modes A B\nslot A\npreselect 1@A\nslot A\npostselect 1@B\n", 4, 6),
        (_BODY + "waveplate A pi/4\npostselect 1@B\n", 4, 1),
        ("modes A B\npolarization off\npreselect 1@A\nstage s\nwaveplate A pi/4\nbogus x\n", 5, 1),
        (_BODY + "beamsplitter A B B A pi/4\npostselect 1@B\n", 4, 1),
        (_BODY + "stage s\npostselect 1@B\n", 4, 7),
        ("modes A SOURCE\npreselect 1@A\npostselect 1@A\n", 1, 9),
        ("modes A B A\npreselect 1@A\npostselect 1@A\n", 1, 11),
        ("modes A B:x\npreselect 1@A\npostselect 1@A\n", 1, 9),
        ("modes A B\npreselect 1e308@A + 1e308@A\npostselect 1@B\n", 2, 1),
        ("modes AB B B\npreselect 1@B\npostselect 1@B\n", 1, 12),
        ("modes A\tB\x0cA\npreselect 1@A\npostselect 1@A\n", 1, 11),
        ("modes A B\npreselect 1/sqrt2@A + 1/sqrt2@B +\npostselect 1@B\n", 2, 33),
        (_BODY + "beamsplitter A B B Q pi/4\npostselect 1@B\n", 4, 20),
        ("modes A B\npreselect 1@A\nadjacency A A\npostselect 1@B\n", 3, 11),
        ("", 1, 1),
    ],
    ids=[
        "unknown-directive",
        "unknown-arm-in-term",
        "malformed-angle",
        "dangling-plus",
        "nan-amplitude",
        "zero-denominator",
        "inf-angle",
        "zero-denominator-angle",
        "unnormalized-preselect",
        "unknown-adjacency-end",
        "self-edge",
        "duplicate-slot",
        "waveplate-without-polarization",
        "waveplate-before-later-fault",
        "overlapping-routing",
        "duplicate-stage",
        "sentinel-arm",
        "duplicate-arm",
        "colon-arm",
        "overflowing-sum",
        "repeat-inside-earlier-word",
        "tab-form-feed-repeat",
        "second-dangling-plus",
        "repeated-arm-then-unknown",
        "repeated-self-edge",
        "empty-text",
    ],
)
def test_parse_error_points_at_token(text, line, column):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.column) == (line, column)


_PLAIN = "modes A B\npreselect 1@A\npostselect 1@A\n"


@pytest.mark.parametrize(
    "text",
    [
        "# note\u2028polarization on\n" + _PLAIN,
        "# note\x85stage sneaky\n" + _PLAIN,
        ("# note\u2029slot A\n" + _PLAIN).replace("\n", "\r\n"),
        "# note\x0b\x0c\x1c\x1d\x1epolarization on\n" + _PLAIN,
    ],
    ids=["u2028", "u0085", "crlf-u2029", "ascii-separators"],
)
def test_comment_runs_to_newline_only(text):
    """Only ``\\n`` ends a line, so a comment swallows text after any other line boundary."""
    assert serialize_scenario(parse_scenario(text)) == serialize_scenario(parse_scenario(_PLAIN))


@pytest.mark.parametrize("blank", ["\x0c", "\u2028", " \x0b\x85 "])
def test_whitespace_only_line_is_one_line(blank):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(f"modes A B\n{blank}\nteleport A\n")
    assert (info.value.line, info.value.column) == (3, 1)


# Every whitespace character the tests above name, and the line-ending characters.
_TEXT_ALPHABET = "ABab#+\n\r \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"


@given(st.text(_TEXT_ALPHABET, max_size=60))
@settings(max_examples=400, deadline=None)
def test_word_rows_match_regex_tokens(text):
    """Each word's line and column, found only on error, are the regex tokenizer's."""
    found = []
    for row in scendsl._tokenize(text):
        for k, word in enumerate(row[2]):
            with pytest.raises(ScenarioParseError) as info:
                scendsl._fail("", row, k)
            found.append((info.value.line, info.value.column, word))
    assert found == tokenize_reference(text)


def _same_angle_text(value):
    """format_angle and the Fraction reference give one string, or raise one type."""
    results = []
    for formatter in (format_angle, format_angle_reference):
        try:
            results.append(formatter(value))
        except (ValueError, ArithmeticError) as exc:
            results.append(type(exc))
    assert results[0] == results[1], value


def _with_neighbours(value):
    return (value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf))


def _pi_multiples(k, n):
    """k pi/n as the parser builds it, and as a fraction times pi."""
    return parse_angle(f"{k}pi/{n}"), k / n * math.pi


def test_format_angle_matches_fraction_reference_on_pi_grid():
    for n in range(1, 97):
        for k in range(-2 * n, 2 * n + 1):
            for value in _pi_multiples(k, n):
                _same_angle_text(value)


@given(st.integers(-1000, 1000), st.integers(1, 96))
@settings(max_examples=500, deadline=None)
def test_format_angle_matches_fraction_reference_next_to_pi_multiples(k, n):
    for value in _pi_multiples(k, n):
        for near in _with_neighbours(value):
            _same_angle_text(near)


@pytest.mark.parametrize("scale", [2.0**-20, 2.0**20], ids=["2^-20", "2^20"])
def test_format_angle_matches_fraction_reference_at_walk_bounds(scale):
    """Both sides of 2^-20 and 2^20 in value/pi, and their float neighbours."""
    for ratio in (scale, scale * (1 + 2.0**-40), scale * (1 - 2.0**-40), scale + 1 / 3, scale - 1 / 7):
        for value in _with_neighbours(ratio * math.pi):
            for near in _with_neighbours(value):
                _same_angle_text(near)
                _same_angle_text(-near)


@pytest.mark.parametrize(
    "value, text",
    [(53763074600669.45, "1129478998363963pi/66"), (-56085590221167.266, "-1535323414227141pi/86")],
)
def test_format_angle_writes_semiconvergent(value, text):
    """The best k/n here is a semiconvergent (convergent denominators 31, 128 and 21, 128)."""
    assert format_angle(value) == text
    assert parse_angle(text) == value


@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
@settings(max_examples=500, deadline=None)
def test_format_angle_matches_fraction_reference_on_floats(value):
    for near in _with_neighbours(value):
        _same_angle_text(near)


@pytest.mark.parametrize(
    "value",
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, sys.float_info.max,
     math.inf, -math.inf, math.nan, 1e14 * math.pi, 0.3, -math.pi / 3],
)
def test_format_angle_matches_fraction_reference_at_extremes(value):
    for near in _with_neighbours(value):
        _same_angle_text(near)

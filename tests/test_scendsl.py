import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktrace import scendsl
from weaktrace.optics import element_operator
from weaktrace.scendsl import FIG2_TEXT, ScenarioParseError, parse_scenario, serialize_scenario


def test_each_element_operator_built_once(monkeypatch):
    built = []

    def counting(spec, basis):
        built.append(spec)
        return element_operator(spec, basis)

    monkeypatch.setattr(scendsl, "element_operator", counting)
    scenario = parse_scenario(FIG2_TEXT)
    elements = [spec for stage in scenario.stages for spec in stage.elements]
    assert len(elements) == 5
    assert built == elements


def test_stage_unitary_is_product_of_element_operators(fig2):
    for stage in fig2.stages:
        expected = np.eye(fig2.basis.dimension, dtype=np.complex128)
        for spec in stage.elements:
            expected = element_operator(spec, fig2.basis).matrix @ expected
        np.testing.assert_array_equal(stage.unitary.matrix, expected)
        assert stage.unitary.unitary


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
    serialized = serialize_scenario(scenario)
    again = parse_scenario(serialized)
    assert serialize_scenario(again) == serialized
    assert again.basis == scenario.basis
    assert again.coupling_slots == scenario.coupling_slots
    assert again.adjacency == scenario.adjacency
    for role in ("preselect", "postselect"):
        before, after = getattr(scenario, role), getattr(again, role)
        assert after.amplitudes.tobytes() == before.amplitudes.tobytes()
    assert len(again.stages) == len(scenario.stages)
    for old, new in zip(scenario.stages, again.stages):
        assert (new.label, new.elements) == (old.label, old.elements)
        assert new.unitary.matrix.tobytes() == old.unitary.matrix.tobytes()


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
    ],
)
def test_parse_error_points_at_token(text, line, column):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.column) == (line, column)

"""Textual scenario description language: parsing, serialization, validation.

The grammar is line-oriented, one directive per line, with ``#`` comments
and case-sensitive labels::

    modes <label>...                          # path modes, declared first
    polarization on|off
    preselect <amplitude>@<mode>[:<pol>] [+|- <term>]...
    stage <label>                             # opens a stage; elements follow
    beamsplitter <in> <out1> <out2> <angle>   # i-on-reflection
    beamsplitter <in1> <in2> <out1> <out2> <angle>   # two populated inputs
    beamsplitter <arm1> <arm2> <angle>        # in-place pair mixing
    waveplate <arm> <angle>
    phaseshifter <arm> <angle>
    mirror <arm>
    slot <name>                               # coupling slot at current boundary
    adjacency <arm> <arm>                     # arms or SOURCE/DETECTOR sentinels
    postselect <term> [+|- <term>]...

Angles are rational multiples of pi (``pi/4``, ``-pi/4``, ``2pi/3``, ``0``)
or decimals.  Amplitudes accept decimals (``0.5``, ``-0.25``), rationals
(``1/2``, ``i/2``), square-root-of-two radicals (``1/sqrt2``, ``i/sqrt2``,
``1/2/sqrt2``) and full complex literals (``0.5+0.5i``).  Serialization
emits this same grammar in canonical order, so any parsed scenario
round-trips bit-exactly.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .evolution import DETECTOR, SOURCE, Scenario, Slot, Stage
from .optics import ElementSpec, element_operator
from .qstate import ATOL, BasisDescriptor, Operator, StateVector, is_unitary_matrix

SENTINELS = (SOURCE, DETECTOR)

_SQRT2 = math.sqrt(2.0)


class ScenarioParseError(ValueError):
    """Parse failure with the 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


@dataclass(frozen=True)
class Diagnostic:
    """One scenario-invariant violation found by :func:`validate`."""

    code: str
    message: str


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[list[_Token]]:
    """Token rows for non-empty lines, comments stripped."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(0), line_no, m.start() + 1)
            for m in re.finditer(r"\S+", content)
        ]
        if tokens:
            rows.append(tokens)
    return rows


_RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")
_IMAG_RATIONAL_RE = re.compile(r"^([+-]?)i/(\d+)$")
_PI_RE = re.compile(r"^([+-]?)(\d*)pi(?:/(\d+))?$")


def parse_amplitude(token: str) -> complex:
    """Parse one amplitude literal; raises ValueError on malformed or non-finite input."""
    if token.endswith("/sqrt2"):
        return parse_amplitude(token[: -len("/sqrt2")]) / _SQRT2
    try:
        if _RATIONAL_RE.match(token):
            num, den = token.split("/")
            value = complex(Fraction(int(num), int(den)))
        elif m := _IMAG_RATIONAL_RE.match(token):
            sign = -1.0 if m.group(1) == "-" else 1.0
            value = complex(0.0, sign / int(m.group(2)))
        else:
            value = complex(token[:-1] + "j" if token.endswith("i") else token)
        if not cmath.isfinite(value):
            raise ValueError
    except (ValueError, ArithmeticError):
        raise ValueError(f"malformed amplitude {token!r}") from None
    return value


def parse_angle(token: str) -> float:
    """Parse an angle literal, pi-rational or decimal radians; rejects non-finite values."""
    m = _PI_RE.match(token)
    try:
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            k = int(m.group(2)) if m.group(2) else 1
            n = int(m.group(3)) if m.group(3) else 1
            value = sign * (k * math.pi) / n
        else:
            value = float(token)
        if not math.isfinite(value):
            raise ValueError
    except (ValueError, ArithmeticError):
        raise ValueError(f"malformed angle {token!r}") from None
    return value


_NICE_REALS: dict[float, str] = {
    1.0: "1",
    -1.0: "-1",
    0.5: "1/2",
    -0.5: "-1/2",
    0.25: "1/4",
    -0.25: "-1/4",
    1.0 / _SQRT2: "1/sqrt2",
    -1.0 / _SQRT2: "-1/sqrt2",
    0.5 / _SQRT2: "1/2/sqrt2",
    -0.5 / _SQRT2: "-1/2/sqrt2",
}

_NICE_IMAGS: dict[float, str] = {
    1.0: "i",
    -1.0: "-i",
    0.5: "i/2",
    -0.5: "-i/2",
    1.0 / _SQRT2: "i/sqrt2",
    -1.0 / _SQRT2: "-i/sqrt2",
    0.5 / _SQRT2: "i/2/sqrt2",
    -0.5 / _SQRT2: "-i/2/sqrt2",
}


def format_amplitude(value: complex) -> str:
    """Canonical amplitude literal; reparsing reproduces the exact floats."""
    re_part, im_part = value.real, value.imag
    if im_part == 0.0:
        return _NICE_REALS.get(re_part, repr(re_part))
    if re_part == 0.0:
        return _NICE_IMAGS.get(im_part, repr(im_part) + "i")
    sign = "+" if im_part > 0 else "-"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


def format_angle(value: float) -> str:
    """Canonical angle literal, preferring pi-rationals when bit-exact."""
    if value == 0.0:
        return "0"
    frac = Fraction(value / math.pi).limit_denominator(96)
    if frac != 0:
        sign = "-" if frac < 0 else ""
        k, n = abs(frac.numerator), frac.denominator
        token = f"{sign}{'' if k == 1 else k}pi{'' if n == 1 else f'/{n}'}"
        if parse_angle(token) == value:
            return token
    return repr(value)


def _state_terms(head: _Token, tokens: list[_Token], basis: BasisDescriptor) -> np.ndarray:
    if not tokens:
        raise ScenarioParseError(
            f"{head.text} expects at least one amplitude term", head.line, head.column
        )
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    expect_term = True
    sign = 1.0
    for tok in tokens:
        if not expect_term:
            if tok.text == "+":
                sign = 1.0
            elif tok.text == "-":
                sign = -1.0
            else:
                raise ScenarioParseError(
                    f"expected '+' or '-' between terms, got {tok.text!r}", tok.line, tok.column
                )
            expect_term = True
            continue
        if "@" not in tok.text:
            raise ScenarioParseError(
                f"expected <amplitude>@<mode> term, got {tok.text!r}", tok.line, tok.column
            )
        amp_text, _, target = tok.text.partition("@")
        mode, _, pol = target.partition(":")
        try:
            amp = parse_amplitude(amp_text)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), tok.line, tok.column) from None
        try:
            index = basis.index(mode, pol if pol else None)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), tok.line, tok.column) from None
        amps[index] += sign * amp
        sign = 1.0
        expect_term = False
    if expect_term:
        last = tokens[-1]
        raise ScenarioParseError(
            "state declaration ends with a dangling separator", last.line, last.column
        )
    return amps


class _Parser:
    def __init__(self, text: str):
        self.rows = _tokenize(text)
        self.last_line = text.count("\n") + 1
        self.modes: tuple[str, ...] | None = None
        self.polarization: bool | None = None
        self.basis: BasisDescriptor | None = None
        self.preselect: np.ndarray | None = None
        self.postselect: np.ndarray | None = None
        self.stages: list[tuple[str, list[ElementSpec], list[Operator]]] = []
        self.slots: list[Slot] = []
        self.adjacency: set[tuple[str, str]] = set()

    def fail(self, message: str, tok: _Token) -> None:
        raise ScenarioParseError(message, tok.line, tok.column)

    def need_basis(self, tok: _Token) -> BasisDescriptor:
        if self.basis is None:
            if self.modes is None:
                self.fail("modes must be declared before this directive", tok)
            self.basis = BasisDescriptor(self.modes, polarization_enabled=bool(self.polarization))
        return self.basis

    def args(self, row: list[_Token], count: int) -> list[_Token]:
        head = row[0]
        if len(row) - 1 != count:
            self.fail(
                f"{head.text} expects {count} argument(s), got {len(row) - 1}", head
            )
        return row[1:]

    def run(self) -> Scenario:
        for row in self.rows:
            head = row[0]
            handler = getattr(self, f"_directive_{head.text.replace('-', '_')}", None)
            if handler is None:
                self.fail(f"unknown directive {head.text!r}", head)
            handler(row)
        tail = _Token("", self.last_line, 1)
        if self.modes is None:
            self.fail("missing modes declaration", tail)
        if self.preselect is None:
            self.fail("missing preselect directive", tail)
        if self.postselect is None:
            self.fail("missing postselect directive", tail)
        basis = self.need_basis(tail)
        stages = tuple(
            Stage(label, _stage_unitary(basis, operators), tuple(elements))
            for label, elements, operators in self.stages
        )
        scenario = Scenario(
            basis=basis,
            stages=stages,
            preselect=StateVector(basis, self.preselect),
            postselect=StateVector(basis, self.postselect),
            adjacency=tuple(sorted(self.adjacency)),
            coupling_slots=tuple(self.slots),
        )
        problems = validate(scenario)
        if problems:
            raise ScenarioParseError(problems[0].message, self.last_line, 1)
        return scenario

    # -- directives -------------------------------------------------------

    def _directive_modes(self, row: list[_Token]) -> None:
        if self.modes is not None:
            self.fail("duplicate modes declaration", row[0])
        if len(row) < 2:
            self.fail("modes expects at least one label", row[0])
        labels = []
        for tok in row[1:]:
            if tok.text in SENTINELS:
                self.fail(f"{tok.text} is a reserved sentinel name", tok)
            if tok.text in labels:
                self.fail(f"duplicate arm label {tok.text!r}", tok)
            labels.append(tok.text)
        self.modes = tuple(labels)

    def _directive_polarization(self, row: list[_Token]) -> None:
        (arg,) = self.args(row, 1)
        if self.polarization is not None:
            self.fail("duplicate polarization declaration", row[0])
        if self.basis is not None:
            self.fail("polarization must be declared before states and stages", row[0])
        if arg.text not in ("on", "off"):
            self.fail(f"polarization expects 'on' or 'off', got {arg.text!r}", arg)
        self.polarization = arg.text == "on"

    def _directive_preselect(self, row: list[_Token]) -> None:
        if self.preselect is not None:
            self.fail("duplicate preselect directive", row[0])
        basis = self.need_basis(row[0])
        amps = _state_terms(row[0], row[1:], basis)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            self.fail(f"preselect state is not normalized (norm={norm!r})", row[0])
        self.preselect = amps

    def _directive_postselect(self, row: list[_Token]) -> None:
        if self.postselect is not None:
            self.fail("duplicate postselect directive", row[0])
        basis = self.need_basis(row[0])
        amps = _state_terms(row[0], row[1:], basis)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            self.fail(f"postselect state is not normalized (norm={norm!r})", row[0])
        self.postselect = amps

    def _directive_stage(self, row: list[_Token]) -> None:
        (label,) = self.args(row, 1)
        self.need_basis(row[0])
        if any(existing == label.text for existing, _, _ in self.stages):
            self.fail(f"duplicate stage label {label.text!r}", label)
        self.stages.append((label.text, [], []))

    def _append_element(self, head: _Token, spec_builder) -> None:
        self.need_basis(head)
        if not self.stages:
            self.fail(f"{head.text} must appear inside a stage", head)
        try:
            spec = spec_builder()
            operator = element_operator(spec, self.basis)
        except ScenarioParseError:
            raise
        except ValueError as exc:
            self.fail(str(exc), head)
        self.stages[-1][1].append(spec)
        self.stages[-1][2].append(operator)

    def _arm_token(self, tok: _Token) -> str:
        if self.modes is None or tok.text not in self.modes:
            self.fail(f"unknown arm {tok.text!r}", tok)
        return tok.text

    def _angle_token(self, tok: _Token) -> float:
        try:
            return parse_angle(tok.text)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), tok.line, tok.column) from None

    def _directive_beamsplitter(self, row: list[_Token]) -> None:
        head = row[0]
        if len(row) - 1 not in (3, 4, 5):
            self.fail(
                f"beamsplitter expects 2, 3 or 4 arms plus an angle, got {len(row) - 1} argument(s)",
                head,
            )
        *arm_tokens, angle_tok = row[1:]
        arms = [self._arm_token(t) for t in arm_tokens]
        angle = self._angle_token(angle_tok)
        if len(arms) == 2:
            in1, in2, out1, out2 = arms[0], arms[1], arms[0], arms[1]
        elif len(arms) == 3:
            in1, out1, out2 = arms
            in2 = out2
        else:
            in1, in2, out1, out2 = arms
        self._append_element(
            head,
            lambda: ElementSpec("beamsplitter", (in1, in2, out1, out2), (angle,)),
        )

    def _directive_waveplate(self, row: list[_Token]) -> None:
        arm_tok, angle_tok = self.args(row, 2)
        arm = self._arm_token(arm_tok)
        angle = self._angle_token(angle_tok)
        self._append_element(row[0], lambda: ElementSpec("waveplate", (arm,), (angle,)))

    def _directive_phaseshifter(self, row: list[_Token]) -> None:
        arm_tok, angle_tok = self.args(row, 2)
        arm = self._arm_token(arm_tok)
        angle = self._angle_token(angle_tok)
        self._append_element(row[0], lambda: ElementSpec("phaseshifter", (arm,), (angle,)))

    def _directive_mirror(self, row: list[_Token]) -> None:
        (arm_tok,) = self.args(row, 1)
        arm = self._arm_token(arm_tok)
        self._append_element(row[0], lambda: ElementSpec("mirror", (arm,)))

    def _directive_slot(self, row: list[_Token]) -> None:
        (name,) = self.args(row, 1)
        if any(slot.name == name.text for slot in self.slots):
            self.fail(f"duplicate slot name {name.text!r}", name)
        self.slots.append(Slot(name=name.text, boundary=len(self.stages)))

    def _directive_adjacency(self, row: list[_Token]) -> None:
        a_tok, b_tok = self.args(row, 2)
        ends = []
        for tok in (a_tok, b_tok):
            if tok.text in SENTINELS or (self.modes is not None and tok.text in self.modes):
                ends.append(tok.text)
            else:
                self.fail(f"unknown arm {tok.text!r}", tok)
        if ends[0] == ends[1]:
            self.fail(f"adjacency edge endpoints identical: {ends[0]!r}", a_tok)
        self.adjacency.add(tuple(sorted(ends)))


def _stage_unitary(basis: BasisDescriptor, operators: list[Operator]) -> Operator:
    """Product of the element operators in order; checked once if all are unitary."""
    matrix = np.eye(basis.dimension, dtype=np.complex128)
    for op in operators:
        matrix = op.matrix @ matrix
    return Operator(basis, matrix, unitary=all(op.unitary for op in operators))


def parse_scenario(text: str, name: str = "") -> Scenario:
    """Parse scenario text; the result always satisfies :func:`validate`."""
    scenario = _Parser(text).run()
    return replace(scenario, name=name) if name else scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical scenario text; ``parse_scenario`` reproduces the scenario."""
    lines = ["modes " + " ".join(scenario.basis.path_modes)]
    lines.append("polarization " + ("on" if scenario.basis.polarization_enabled else "off"))
    lines.append("preselect " + _format_state(scenario.preselect))
    slots_at: dict[int, list[str]] = {}
    for slot in scenario.coupling_slots:
        slots_at.setdefault(slot.boundary, []).append(slot.name)
    for name in slots_at.get(0, ()):
        lines.append(f"slot {name}")
    for position, stage in enumerate(scenario.stages, start=1):
        lines.append(f"stage {stage.label}")
        for spec in stage.elements:
            lines.append(_format_element(spec))
        for name in slots_at.get(position, ()):
            lines.append(f"slot {name}")
    for a, b in sorted(set(map(tuple, scenario.adjacency))):
        lines.append(f"adjacency {a} {b}")
    lines.append("postselect " + _format_state(scenario.postselect))
    return "\n".join(lines) + "\n"


def _format_state(state: StateVector) -> str:
    terms = []
    for (arm, pol), amp in zip(state.basis.labels(), state.amplitudes):
        if amp == 0:
            continue
        target = arm if pol is None else f"{arm}:{pol}"
        terms.append(f"{format_amplitude(complex(amp))}@{target}")
    if not terms:
        arm = state.basis.path_modes[0]
        pol = state.basis.polarization_axes[0] if state.basis.polarization_enabled else None
        terms.append(f"0@{arm if pol is None else f'{arm}:{pol}'}")
    return " + ".join(terms)


def _format_element(spec: ElementSpec) -> str:
    if spec.kind == "beamsplitter":
        in1, in2, out1, out2 = spec.operands
        angle = format_angle(spec.parameters[0])
        if in1 == out1 and in2 == out2:
            return f"beamsplitter {in1} {in2} {angle}"
        if in2 == out2:
            return f"beamsplitter {in1} {out1} {out2} {angle}"
        return f"beamsplitter {in1} {in2} {out1} {out2} {angle}"
    if spec.kind in ("waveplate", "phaseshifter"):
        return f"{spec.kind} {spec.operands[0]} {format_angle(spec.parameters[0])}"
    if spec.kind == "mirror":
        return f"mirror {spec.operands[0]}"
    raise ValueError(f"element kind {spec.kind!r} has no textual form")


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All scenario-invariant violations; an empty list means valid."""
    problems: list[Diagnostic] = []
    for role, state in (("preselect", scenario.preselect), ("postselect", scenario.postselect)):
        norm = state.norm()
        if abs(norm - 1.0) > ATOL:
            problems.append(
                Diagnostic("normalization", f"{role} state is not normalized (norm={norm!r})")
            )
    for stage in scenario.stages:
        if not is_unitary_matrix(stage.unitary.matrix):
            problems.append(
                Diagnostic("unitarity", f"stage {stage.label!r} is not unitary within {ATOL}")
            )
    known = set(scenario.basis.path_modes) | set(SENTINELS)
    for a, b in scenario.adjacency:
        for end in (a, b):
            if end not in known:
                problems.append(
                    Diagnostic("adjacency", f"adjacency references unknown arm {end!r}")
                )
        if a == b:
            problems.append(Diagnostic("adjacency", f"adjacency self-edge on {a!r}"))
    seen_slots: set[str] = set()
    for slot in scenario.coupling_slots:
        if not 0 <= slot.boundary <= len(scenario.stages):
            problems.append(
                Diagnostic(
                    "slot",
                    f"slot {slot.name!r} boundary {slot.boundary} outside 0..{len(scenario.stages)}",
                )
            )
        if slot.name in seen_slots:
            problems.append(Diagnostic("slot", f"duplicate slot name {slot.name!r}"))
        seen_slots.add(slot.name)
    return problems


FIG1_TEXT = """\
# Three-path interferometer with a nested two-arm loop, balanced so the
# recombined inner beams cancel along arm E.
modes S A B C D E F
polarization off
preselect 1@S
stage split
beamsplitter S D A pi/4
slot D
stage inner-split
beamsplitter D C B pi/4
slot A
slot B
slot C
stage inner-merge
beamsplitter C B E F pi/4
slot E
adjacency SOURCE S
adjacency SOURCE A
adjacency SOURCE D
adjacency A DETECTOR
adjacency A E
adjacency B C
adjacency B E
adjacency B F
adjacency C E
adjacency C F
adjacency D B
adjacency D C
adjacency E DETECTOR
adjacency E F
postselect 1/sqrt2@A + i/sqrt2@E
"""

FIG2_TEXT = """\
# Same interferometer with polarization tracked: wave plates inside the
# inner loop rotate the two beams onto opposite diagonal axes, and the
# post-selection keeps only horizontal polarization.
modes S A B C D E F
polarization on
preselect 1@S:H
stage split
beamsplitter S D A pi/4
slot D
stage inner-split
beamsplitter D C B pi/4
waveplate B pi/4
waveplate C -pi/4
slot A
slot B
slot C
stage inner-merge
beamsplitter C B E F pi/4
slot E
adjacency SOURCE S
adjacency SOURCE A
adjacency SOURCE D
adjacency A DETECTOR
adjacency A E
adjacency B C
adjacency B E
adjacency B F
adjacency C E
adjacency C F
adjacency D B
adjacency D C
adjacency E DETECTOR
adjacency E F
postselect 1/sqrt2@A:H + i/sqrt2@E:H
"""

BUILTIN_TEXTS = {"fig1": FIG1_TEXT, "fig2": FIG2_TEXT}

_BUILTIN_CACHE: dict[str, Scenario] = {}


def builtin_scenario(name: str) -> Scenario:
    """One of the bundled reference scenarios (``fig1`` or ``fig2``)."""
    if name not in BUILTIN_TEXTS:
        raise ValueError(f"unknown builtin scenario {name!r}; known: {sorted(BUILTIN_TEXTS)}")
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = parse_scenario(BUILTIN_TEXTS[name], name=name)
    return _BUILTIN_CACHE[name]

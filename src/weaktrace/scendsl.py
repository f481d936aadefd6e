"""Textual scenario description language: parsing, serialization, validation.

The grammar is line-oriented, one directive per line.  A line ends at
``\\n`` and nowhere else: ``\\r``, form feeds and Unicode line separators
are whitespace between tokens.  A line's words are split as ``str.split()``
reads whitespace, and a word's column is computed only to report an error.
A ``#`` comment runs to the end of its line::

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

Labels are case-sensitive and unique within their kind (arm, stage or
slot); each is non-empty and holds no whitespace or ``#``.  An arm label
also holds no ``:``, which splits a state term's arm from its
polarization, and is not a reserved sentinel, ``SOURCE`` or ``DETECTOR``.

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
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from .evolution import DETECTOR, SOURCE, Scenario, Slot, Stage
from .optics import ElementSpec, check_element
from .qstate import ATOL, POLARIZATION_AXES, BasisDescriptor, StateVector

SENTINELS = (SOURCE, DETECTOR)
_UNWRITABLE = re.compile(r"[\s#]")

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
    """One broken scenario rule: :func:`validate` reports it, the parser raises it."""

    code: str
    message: str


def _check_normalized(role: str, state: StateVector) -> Diagnostic | None:
    norm = state.norm()
    if abs(norm - 1.0) > ATOL:
        return Diagnostic("normalization", f"{role} state is not normalized (norm={norm!r})")
    return None


def _check_adjacency_end(end: str, arms: Collection[str]) -> Diagnostic | None:
    if end not in arms and end not in SENTINELS:
        return Diagnostic("adjacency", f"adjacency references unknown arm {end!r}")
    return None


def _check_self_edge(a: str, b: str) -> Diagnostic | None:
    if a == b:
        return Diagnostic("adjacency", f"adjacency self-edge on {a!r}")
    return None


def _check_label(kind: str, label: str, seen: set[str]) -> Diagnostic | None:
    """The module docstring's label rule; records ``label`` in ``seen``, its kind's labels."""
    if label in seen:
        return Diagnostic(kind, f"duplicate {kind} label {label!r}")
    seen.add(label)
    if not label or _UNWRITABLE.search(label):
        return Diagnostic("label", f"{kind} label {label!r} is empty or holds whitespace or '#'")
    if kind == "arm" and ":" in label:
        return Diagnostic("label", f"arm label {label!r} holds ':', the polarization separator")
    if kind == "arm" and label in SENTINELS:
        return Diagnostic("label", f"arm label {label!r} is a reserved sentinel name")
    return None


#: One non-empty line: its number, its text before ``#``, and its words.
_Row = tuple[int, str, list[str]]


def _tokenize(text: str) -> list[_Row]:
    """Word rows for non-empty lines, comments stripped; lines end at ``\\n`` only."""
    rows = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        content = raw.partition("#")[0]
        words = content.split()
        if words:
            rows.append((line_no, content, words))
    return rows


def _fail(message: str, row: _Row, k: int = 0) -> NoReturn:
    """Raise at word ``k`` of ``row``; its column is found here, and only here."""
    line, content, words = row
    end = 0
    for word in words[: k + 1]:
        # Only whitespace lies between the previous word's end and this word,
        # so the first match from there is this word, not a repeat of it or
        # a copy inside an earlier word.
        start = content.find(word, end)
        end = start + len(word)
    raise ScenarioParseError(message, line, start + 1) from None


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
    # ``+ 0.0`` turns -0.0 into 0.0, which format_angle also writes as "0",
    # so texts that differ only in the sign of a zero angle build one stage.
    return value + 0.0


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

# The same spellings with the leading 1 read as i.  A quarter stays
# ``0.25i``, as it has always been serialized.
_NICE_IMAGS: dict[float, str] = {
    value: text.replace("1", "i", 1) for value, text in _NICE_REALS.items() if abs(value) != 0.25
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
    """Canonical angle literal, ``k pi/n`` when that reads back exactly.

    k/n is the best approximation of ``value / pi`` with n <= 96; its
    literal is written when it is nonzero and parses to ``value``, and
    ``repr(value)`` otherwise.
    """
    if value == 0.0:
        return "0"
    # Fraction.limit_denominator(96) on the float's exact ratio: continued-
    # fraction convergents p1/q1 until the next denominator passes 96, then
    # the largest semiconvergent if it is strictly nearer.
    n, den = abs(value / math.pi).as_integer_ratio()
    p0, q0, p1, q1, d = 0, 1, 1, 0, den
    while d and q0 + (a := n // d) * q1 <= 96:
        p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d
    if d:
        k = (96 - q0) // q1
        if 2 * d * (q0 + k * q1) > den:
            p1, q1 = p0 + k * p1, q0 + k * q1
    if p1:
        token = f"{'-' if value < 0 else ''}{'' if p1 == 1 else p1}pi{'' if q1 == 1 else f'/{q1}'}"
        if parse_angle(token) == value:
            return token
    return repr(value)


def _state_terms(row: _Row, basis: BasisDescriptor) -> StateVector:
    """Terms at odd words, ``+`` or ``-`` at even ones after the head, summed onto ``basis``."""
    words = row[2]
    if len(words) == 1:
        _fail(f"{words[0]} expects at least one amplitude term", row)
    amps = [0j] * basis.dimension
    for k, word in enumerate(words[1:], start=1):
        if not k % 2:
            if word not in ("+", "-"):
                _fail(f"expected '+' or '-' between terms, got {word!r}", row, k)
            continue
        amp_text, at, target = word.partition("@")
        if not at:
            _fail(f"expected <amplitude>@<mode> term, got {word!r}", row, k)
        mode, _, pol = target.partition(":")
        try:
            amp = parse_amplitude(amp_text)
            index = basis.index(mode, pol or None)
        except ValueError as exc:
            _fail(str(exc), row, k)
        sign = -1.0 if k > 1 and words[k - 1] == "-" else 1.0
        amps[index] += sign * amp
    if len(words) % 2:
        _fail("state declaration ends with a dangling separator", row, len(words) - 1)
    try:
        return StateVector(basis, amps)
    except ValueError as exc:  # terms on one basis element can sum past the float range
        _fail(str(exc), row)


class _Parser:
    def __init__(self, text: str, name: str):
        self.rows = _tokenize(text)
        self.name = name
        # Where a missing directive is reported: column 1 of the last line.
        self.tail: _Row = (text.count("\n") + 1, "", [""])
        self.modes: tuple[str, ...] | None = None
        self.arms: frozenset[str] = frozenset()  # the modes, for membership tests
        self.polarization: bool | None = None
        self.basis: BasisDescriptor | None = None
        self.preselect: StateVector | None = None
        self.postselect: StateVector | None = None
        self.stages: list[tuple[str, list[ElementSpec]]] = []
        self.slots: list[Slot] = []
        self.adjacency: list[tuple[str, str]] = []
        self.seen: dict[str, set[str]] = {"arm": set(), "stage": set(), "slot": set()}

    def check(self, problem: Diagnostic | None, row: _Row, k: int = 0) -> None:
        if problem is not None:
            _fail(problem.message, row, k)

    def label(self, kind: str, row: _Row, k: int) -> str:
        word = row[2][k]
        self.check(_check_label(kind, word, self.seen[kind]), row, k)
        return word

    def need_basis(self, row: _Row) -> BasisDescriptor:
        if self.basis is None:
            if self.modes is None:
                _fail("modes must be declared before this directive", row)
            self.basis = BasisDescriptor(self.modes, polarization_enabled=bool(self.polarization))
        return self.basis

    def args(self, row: _Row, count: int) -> list[str]:
        words = row[2]
        if len(words) - 1 != count:
            _fail(f"{words[0]} expects {count} argument(s), got {len(words) - 1}", row)
        return words[1:]

    def run(self) -> Scenario:
        for row in self.rows:
            handler = _DIRECTIVES.get(row[2][0])
            if handler is None:
                _fail(f"unknown directive {row[2][0]!r}", row)
            handler(self, row)
        if self.modes is None:
            _fail("missing modes declaration", self.tail)
        if self.preselect is None:
            _fail("missing preselect directive", self.tail)
        if self.postselect is None:
            _fail("missing postselect directive", self.tail)
        basis = self.need_basis(self.tail)
        return Scenario(
            basis=basis,
            stages=[Stage(label, elements) for label, elements in self.stages],
            preselect=self.preselect,
            postselect=self.postselect,
            adjacency=self.adjacency,
            coupling_slots=tuple(self.slots),
            name=self.name,
        )

    # -- directives -------------------------------------------------------

    def _directive_modes(self, row: _Row) -> None:
        if self.modes is not None:
            _fail("duplicate modes declaration", row)
        if len(row[2]) < 2:
            _fail("modes expects at least one label", row)
        self.modes = tuple(self.label("arm", row, k) for k in range(1, len(row[2])))
        self.arms = frozenset(self.modes)

    def _directive_polarization(self, row: _Row) -> None:
        (arg,) = self.args(row, 1)
        if self.polarization is not None:
            _fail("duplicate polarization declaration", row)
        if self.basis is not None:
            _fail("polarization must be declared before states and stages", row)
        if arg not in ("on", "off"):
            _fail(f"polarization expects 'on' or 'off', got {arg!r}", row, 1)
        self.polarization = arg == "on"

    def _state_directive(self, row: _Row) -> None:
        role = row[2][0]
        if getattr(self, role) is not None:
            _fail(f"duplicate {role} directive", row)
        state = _state_terms(row, self.need_basis(row))
        self.check(_check_normalized(role, state), row)
        setattr(self, role, state)

    _directive_preselect = _directive_postselect = _state_directive

    def _directive_stage(self, row: _Row) -> None:
        self.args(row, 1)
        self.need_basis(row)
        self.stages.append((self.label("stage", row, 1), []))

    def _append_element(self, row: _Row, operands: tuple[str, ...], *parameters) -> None:
        kind = row[2][0]
        if not self.stages:
            _fail(f"{kind} must appear inside a stage", row)
        try:
            spec = ElementSpec(kind, operands, parameters)
            check_element(spec, self.basis)
        except ValueError as exc:
            _fail(str(exc), row)
        self.stages[-1][1].append(spec)

    def _arm_word(self, row: _Row, k: int) -> str:
        word = row[2][k]
        if word not in self.arms:
            _fail(f"unknown arm {word!r}", row, k)
        return word

    def _angle_word(self, row: _Row, k: int) -> float:
        try:
            return parse_angle(row[2][k])
        except ValueError as exc:
            _fail(str(exc), row, k)

    def _directive_beamsplitter(self, row: _Row) -> None:
        last = len(row[2]) - 1
        if last not in (3, 4, 5):
            _fail(f"beamsplitter expects 2, 3 or 4 arms plus an angle, got {last} argument(s)", row)
        arms = [self._arm_word(row, k) for k in range(1, last)]
        angle = self._angle_word(row, last)
        if len(arms) == 2:
            in1, in2, out1, out2 = arms[0], arms[1], arms[0], arms[1]
        elif len(arms) == 3:
            in1, out1, out2 = arms
            in2 = out2
        else:
            in1, in2, out1, out2 = arms
        self._append_element(row, (in1, in2, out1, out2), angle)

    def _arm_angle_directive(self, row: _Row) -> None:
        self.args(row, 2)
        arm = self._arm_word(row, 1)
        self._append_element(row, (arm,), self._angle_word(row, 2))

    _directive_waveplate = _directive_phaseshifter = _arm_angle_directive

    def _directive_mirror(self, row: _Row) -> None:
        self.args(row, 1)
        self._append_element(row, (self._arm_word(row, 1),))

    def _directive_slot(self, row: _Row) -> None:
        self.args(row, 1)
        self.slots.append(Slot(name=self.label("slot", row, 1), boundary=len(self.stages)))

    def _directive_adjacency(self, row: _Row) -> None:
        a, b = self.args(row, 2)
        for k in (1, 2):
            self.check(_check_adjacency_end(row[2][k], self.arms), row, k)
        self.check(_check_self_edge(a, b), row, 1)
        self.adjacency.append((a, b))


#: Each directive word's handler: ``_Parser._directive_<word>``.
_DIRECTIVES = {
    name.removeprefix("_directive_"): handler
    for name, handler in vars(_Parser).items()
    if name.startswith("_directive_")
}


def parse_scenario(text: str, name: str = "") -> Scenario:
    """Parse scenario text into one :class:`Scenario`.

    Each invariant is checked once, raising at its own token's line and
    column, so a parsed scenario has no :func:`validate` diagnostics.
    """
    return _Parser(text, name).run()


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text; reparsing it rebuilds each stage from the same element list."""
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
    for a, b in scenario.adjacency:
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
        pol = POLARIZATION_AXES[0] if state.basis.polarization_enabled else None
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
    """All scenario-invariant violations; an empty list means valid.

    Applies the parser's rules (normalization, adjacency ends and edges,
    and the label rule of the module docstring) to every item, and reports
    slots whose boundary lies outside the stages, which text cannot express.
    A parsed scenario passes every rule by construction, so only one built
    through the API can fail.
    """
    arms = scenario.basis.path_modes
    problems = [
        _check_normalized("preselect", scenario.preselect),
        _check_normalized("postselect", scenario.postselect),
    ]
    for a, b in scenario.adjacency:
        problems += [_check_adjacency_end(a, arms), _check_adjacency_end(b, arms)]
        problems.append(_check_self_edge(a, b))
    last = len(scenario.stages)
    for slot in scenario.coupling_slots:
        if not 0 <= slot.boundary <= last:
            message = f"slot {slot.name!r} boundary {slot.boundary} outside 0..{last}"
            problems.append(Diagnostic("slot", message))
    for kind, labels in (
        ("arm", arms),
        ("stage", [stage.label for stage in scenario.stages]),
        ("slot", [slot.name for slot in scenario.coupling_slots]),
    ):
        seen: set[str] = set()
        problems += [_check_label(kind, label, seen) for label in labels]
    return [problem for problem in problems if problem is not None]


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


def builtin_scenario(name: str) -> Scenario:
    """One of the bundled reference scenarios (``fig1`` or ``fig2``), parsed anew."""
    if name not in BUILTIN_TEXTS:
        raise ValueError(f"unknown builtin scenario {name!r}; known: {sorted(BUILTIN_TEXTS)}")
    return parse_scenario(BUILTIN_TEXTS[name], name=name)

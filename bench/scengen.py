"""Seeded scenario generator: nested-loop interferometer chains as DSL text.

Every scenario is produced twice from one structured record: as scenario
text for the program, and as an element list that ``oracle.py`` turns into
dense matrices written out longhand.  The program never sees the record.

A chain of ``k`` nested loops has arms ``S``, ``D1..Dk``, ``A1..Ak``,
``E2..Ek`` and ``F2..Fk``.  Loop ``j`` splits the arm that enters it into
``Dj`` (which carries the deeper loops) and ``Aj``; the innermost pair
``Dk, Ak`` recombines into ``Ek, Fk``, and each ``E(j+1)`` recombines with
``Aj`` on the way out.  The outermost recombination is left to the
post-selection, as in the paper's figure 1, which has the shape of the
``k = 2`` chain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

_R = 1.0 / math.sqrt(2.0)

#: Angle literals the generator writes, with the value they denote.
ANGLES = {
    "pi/4": math.pi / 4, "-pi/4": -math.pi / 4, "pi/3": math.pi / 3,
    "pi/6": math.pi / 6, "pi/8": math.pi / 8, "3pi/8": 3 * math.pi / 8,
    "pi/2": math.pi / 2, "2pi/3": 2 * math.pi / 3, "pi": math.pi, "0.3": 0.3,
}
SPLIT_ANGLES = ("pi/4", "pi/4", "pi/4", "pi/3", "pi/6", "3pi/8", "-pi/4")
PHASES = ("pi/2", "pi/3", "-pi/4", "pi", "2pi/3", "0.3")
PLATES = ("pi/4", "-pi/4", "pi/8", "pi/6")

#: Amplitude literals the generator writes, with the value they denote.
AMPLITUDES = {
    "1": 1.0, "-1": -1.0, "i": 1j, "-i": -1j,
    "1/2": 0.5, "-1/2": -0.5, "i/2": 0.5j, "-i/2": -0.5j,
    "1/sqrt2": _R, "-1/sqrt2": -_R, "i/sqrt2": 1j * _R, "-i/sqrt2": -1j * _R,
}
_HALF = ("1/2", "-1/2", "i/2", "-i/2")
_ROOT = ("1/sqrt2", "-1/sqrt2", "i/sqrt2", "-i/sqrt2")

#: Lower bound on |<post|U|pre>| for a generated scenario, far above the
#: program's 1e-10 degeneracy floor, so no weak value is ill-conditioned.
AMPLITUDE_FLOOR = 0.05


@dataclass
class Element:
    """One optical element: ``kind`` is beamsplitter, waveplate, phaseshifter or mirror.

    ``arms`` is ``(in1, in2, out1, out2)`` for a beamsplitter, else one arm;
    ``angle`` is the literal written into the text.
    """

    kind: str
    arms: tuple[str, ...]
    angle: str = ""

    def text(self) -> str:
        if self.kind == "beamsplitter":
            in1, in2, out1, out2 = self.arms
            ports = (in1, out1, out2) if in2 == out2 else self.arms
            return f"beamsplitter {' '.join(ports)} {self.angle}"
        if self.kind == "mirror":
            return f"mirror {self.arms[0]}"
        return f"{self.kind} {self.arms[0]} {self.angle}"


@dataclass
class Spec:
    """Structured scenario: what both the text and the reference are built from."""

    name: str
    modes: tuple[str, ...]
    polarization: bool
    pre: list[tuple[str, str, str | None]]  # (amplitude literal, arm, pol)
    post: list[tuple[str, str, str | None]]
    stages: list[tuple[str, list[Element]]]
    slots: list[tuple[str, int]]  # (name, boundary) in declaration order
    adjacency: list[tuple[str, str]] = field(default_factory=list)
    exits: tuple[str, ...] = ()  # arms still populated after the last stage

    def text(self, stage_suffix: str = "") -> str:
        lines = [f"modes {' '.join(self.modes)}",
                 f"polarization {'on' if self.polarization else 'off'}",
                 "preselect " + _terms(self.pre)]
        lines += [f"slot {n}" for n, b in self.slots if b == 0]
        for position, (label, elements) in enumerate(self.stages, start=1):
            lines.append(f"stage {label}{stage_suffix}")
            lines += [e.text() for e in elements]
            lines += [f"slot {n}" for n, b in self.slots if b == position]
        lines += [f"adjacency {a} {b}" for a, b in self.adjacency]
        lines.append("postselect " + _terms(self.post))
        return "\n".join(lines) + "\n"

    def canonical_slots(self) -> list[tuple[str, int]]:
        named = [(n, b) for n, b in self.slots if n in self.modes]
        return named or [(arm, len(self.stages)) for arm in self.modes]


def _terms(terms) -> str:
    return " + ".join(f"{amp}@{arm}" + (f":{pol}" if pol else "") for amp, arm, pol in terms)


def _adjacent(pairs: set, arms) -> None:
    arms = list(dict.fromkeys(arms))
    for i, a in enumerate(arms):
        for b in arms[i + 1:]:
            pairs.add(tuple(sorted((a, b))))


def fig1(polarization: bool = False) -> Spec:
    """The paper's three-path interferometer (``fig2`` adds the wave plates)."""
    pol = "H" if polarization else None
    inner = [Element("beamsplitter", ("D", "B", "C", "B"), "pi/4")]
    if polarization:
        inner += [Element("waveplate", ("B",), "pi/4"), Element("waveplate", ("C",), "-pi/4")]
    adjacency = [("A", "DETECTOR"), ("A", "E"), ("B", "C"), ("B", "E"), ("B", "F"),
                 ("C", "E"), ("C", "F"), ("D", "B"), ("D", "C"), ("DETECTOR", "E"),
                 ("E", "F"), ("S", "SOURCE"), ("A", "SOURCE"), ("D", "SOURCE")]
    return Spec(
        name="fig2" if polarization else "fig1",
        modes=("S", "A", "B", "C", "D", "E", "F"),
        polarization=polarization,
        pre=[("1", "S", pol)],
        post=[("1/sqrt2", "A", pol), ("i/sqrt2", "E", pol)],
        stages=[("split", [Element("beamsplitter", ("S", "A", "D", "A"), "pi/4")]),
                ("inner-split", inner),
                ("inner-merge", [Element("beamsplitter", ("C", "B", "E", "F"), "pi/4")])],
        slots=[("D", 1), ("A", 2), ("B", 2), ("C", 2), ("E", 3)],
        adjacency=adjacency,
    )


def chain(rng: random.Random, k: int, polarization: bool, name: str) -> Spec:
    """Random k-loop chain whose post-selection clears ``AMPLITUDE_FLOOR``.

    The post-selection is redrawn, and after repeated misses the whole
    chain, until the reference amplitude clears the floor.
    """
    from oracle import Reference  # local import: oracle imports this module

    while True:
        spec = _chain_body(rng, k, polarization, name)
        body_adjacency = set(spec.adjacency)
        for _ in range(40):
            spec.post = _postselection(rng, spec)
            support = [arm for _, arm, _ in spec.post]
            detector = {(arm, "DETECTOR") for arm in support}
            _adjacent(detector, support)
            spec.adjacency = sorted(body_adjacency | detector)
            if abs(Reference(spec).amplitude) >= AMPLITUDE_FLOOR:
                return spec


def _chain_body(rng: random.Random, k: int, polarization: bool, name: str) -> Spec:
    modes = ["S"] + [f"{p}{j}" for j in range(1, k + 1) for p in "DA"]
    modes += [f"{p}{j}" for j in range(2, k + 1) for p in "EF"]
    if polarization:
        pre = rng.choice([[("1", "S", "H")], [("1", "S", "V")],
                          [("1/sqrt2", "S", "H"), (rng.choice(_ROOT), "S", "V")]])
    else:
        pre = [("1", "S", None)]
    adjacency = {("S", "SOURCE")}
    live = {"S"}
    born: dict[str, int] = {}
    stages = []

    def add_stage(label, inputs, outputs):
        in1, in2 = inputs
        out1, out2 = outputs
        elements = [Element("beamsplitter", (in1, in2, out1, out2), rng.choice(SPLIT_ANGLES))]
        _adjacent(adjacency, (in1, in2, out1, out2))
        live.difference_update(inputs)
        live.update(outputs)
        # One more element per stage, so that a chain's cost depends on k alone.
        arm = rng.choice(sorted(live))
        roll = rng.random()
        if polarization and roll < 0.5:
            elements.append(Element("waveplate", (arm,), rng.choice(PLATES)))
        elif roll < 0.85:
            elements.append(Element("phaseshifter", (arm,), rng.choice(PHASES)))
        else:
            elements.append(Element("mirror", (arm,)))
        stages.append((label, elements))
        for arm in outputs:
            born[arm] = len(stages)

    entering = "S"
    for j in range(1, k + 1):
        add_stage(f"split{j}", (entering, f"A{j}"), (f"D{j}", f"A{j}"))
        entering = f"D{j}"
    carry = f"D{k}"
    for j in range(k, 1, -1):
        add_stage(f"merge{j}", (carry, f"A{j}"), (f"E{j}", f"F{j}"))
        carry = f"E{j}"

    # Each arm's slot sits right after the stage that fills it.
    slots = [(arm, born[arm]) for arm in modes if arm != "S"]
    if rng.random() < 0.3:
        slots.append((f"probe{rng.randrange(100)}", rng.randint(0, len(stages))))
    slots.sort(key=lambda s: s[1])
    return Spec(name=name, modes=tuple(modes), polarization=polarization, pre=pre, post=[],
                stages=stages, slots=slots, adjacency=sorted(adjacency), exits=tuple(sorted(live)))


def _postselection(rng: random.Random, spec: Spec) -> list[tuple[str, str, str | None]]:
    """A normalized post-selection over two to four (arm, pol) outputs."""
    outer = ["D1", "A1"] if len(spec.modes) == 3 else ["A1", "E2"]
    extra = [a for a in spec.exits if a not in outer]
    pols = ("H", "V") if spec.polarization else (None,)
    targets = [(a, rng.choice(pols)) for a in outer]
    pattern = rng.choice(["two", "two", "three", "four"])
    if pattern != "two" and extra:
        targets.append((rng.choice(extra), rng.choice(pols)))
    if pattern == "four" and spec.polarization:
        arm, pol = targets[0]
        targets.append((arm, "V" if pol == "H" else "H"))
    targets = list(dict.fromkeys(targets))
    amps = {2: [_ROOT] * 2, 3: [_HALF, _HALF, _ROOT], 4: [_HALF] * 4}[len(targets)]
    terms = [(rng.choice(a), arm, pol) for a, (arm, pol) in zip(amps, targets)]
    # The first term stays positive real: a global phase changes nothing.
    terms[0] = ("1/2" if amps[0] is _HALF else "1/sqrt2",) + terms[0][1:]
    return terms


# -- malformed inputs -------------------------------------------------------

MUTATIONS = ("unknown-arm", "unnormalized", "bad-directive", "dangling-plus")


def mutate(text: str, kind: str) -> str:
    """A copy of valid scenario text that the parser must reject."""
    lines = text.splitlines()
    if kind == "unknown-arm":
        i = next(n for n, line in enumerate(lines) if line.startswith("beamsplitter"))
        words = lines[i].split()
        words[2] = "Q0"
        lines[i] = " ".join(words)
    elif kind == "unnormalized":
        i = next(n for n, line in enumerate(lines) if line.startswith("preselect"))
        target = lines[i].split()[1].split("@", 1)[1]
        lines[i] = f"preselect 1/2@{target}"
    elif kind == "bad-directive":
        lines.insert(1, "splitter S D1 pi/4")
    elif kind == "dangling-plus":
        i = next(n for n, line in enumerate(lines) if line.startswith("postselect"))
        lines[i] += " +"
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n"

"""Optical elements: what each one is, and how it acts on the rows of a matrix.

Conventions, fixed globally:

* Beam splitters use the i-on-reflection convention: on the 2-dim mode pair
  the mixing matrix is ``[[cos t, i sin t], [i sin t, cos t]]``; ``t = pi/4``
  gives a 50/50 splitter.
* Wave plates apply the real rotation ``[[cos a, -sin a], [sin a, cos a]]``
  on the (H, V) factor of a single arm, so ``a = +pi/4`` maps H to the
  diagonal state (H+V)/sqrt2 and ``a = -pi/4`` to the antidiagonal one.

An element is an :class:`ElementSpec`, which checks everything that does not
depend on a basis; :func:`check_element` is the one basis rule, that a
waveplate needs polarization.  :func:`apply_element` looks up each operand's
rows once and acts on them in a ``d x n`` array in place, with plain row
arithmetic: a beamsplitter combines its input rows into its output rows, a
waveplate rotates its arm's H/V rows, and a phaseshifter or mirror multiplies
its arm's rows.  No element matrix is built.  Each matrix in
``evolution.Scenario.stage_matrices`` is the identity with its stage's
elements applied in turn; :func:`element_operator` applies one element to
the identity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qstate import BasisDescriptor, Operator

#: Element kinds a stage may carry.
ELEMENT_KINDS = ("beamsplitter", "phaseshifter", "waveplate", "mirror")


@dataclass(frozen=True)
class ElementSpec:
    """Declarative record of one optical element.

    ``operands`` holds arm labels: the routed 4-tuple
    ``(in1, in2, out1, out2)`` for a beamsplitter, a single arm otherwise.
    ``parameters`` holds one finite real angle in radians (none for a mirror).

    A beamsplitter maps ``in1`` to ``cos(t)*out1 + i sin(t)*out2`` and
    ``in2`` to ``i sin(t)*out1 + cos(t)*out2``; ``t = 0`` is the identity
    and ``t = pi/2`` a swap with phase i on both ports.  Its action is a
    row swap, then a mix: each input arm's rows swap with its output arm's
    rows, then the in-place mixer acts on ``(out1, out2)``.  Freed labels
    thus swap back onto the vacated ones, which keeps the element unitary;
    those return branches carry no amplitude in feed-forward scenarios.
    The swaps must be a disjoint relabeling.  Polarization passes through
    unchanged.  A waveplate rotates its arm's polarization, a phaseshifter
    multiplies its arm's amplitudes by ``exp(i*angle)``, and a mirror by
    ``i`` (i-on-reflection).
    """

    kind: str
    operands: tuple[str, ...]
    parameters: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.kind == "beamsplitter":
            if len(self.operands) != 4:
                raise ValueError(
                    f"beamsplitter operands must be (in1, in2, out1, out2), got {self.operands}"
                )
            in1, in2, out1, out2 = self.operands
            if in1 == in2 or out1 == out2:
                raise ValueError(f"beamsplitter operands identical: {self.operands}")
            swaps = [(a, b) for a, b in ((in1, out1), (in2, out2)) if a != b]
            touched = [arm for pair in swaps for arm in pair]
            if len(set(touched)) != len(touched):
                raise ValueError(
                    f"beamsplitter routing {(in1, in2)} -> {(out1, out2)} "
                    "is not a disjoint relabeling"
                )
        elif len(self.operands) != 1:
            raise ValueError(f"{self.kind} takes a single arm, got {self.operands}")
        n_angles = 0 if self.kind == "mirror" else 1
        finite = all(
            isinstance(p, (float, numbers.Real)) and math.isfinite(p) for p in self.parameters
        )
        if len(self.parameters) != n_angles or not finite:
            raise ValueError(
                f"{self.kind} takes {n_angles} finite real angle(s), got {self.parameters}"
            )
        # Plain floats, so that format_angle writes a numpy scalar as a literal the parser reads.
        object.__setattr__(self, "parameters", tuple(map(float, self.parameters)))


def check_element(spec: ElementSpec, basis: BasisDescriptor) -> None:
    """The basis rule: ``ValueError`` for a waveplate without polarization.  No arm lookup."""
    if spec.kind == "waveplate" and not basis.polarization_enabled:
        raise ValueError("waveplate requires a polarization-enabled basis")


def apply_element(spec: ElementSpec, basis: BasisDescriptor, rows: np.ndarray) -> None:
    """Left-multiply the complex ``d x n`` array ``rows`` in place by the matrix of ``spec``.

    The operand rows are looked up (``UnknownLabelError`` for an unknown arm)
    and :func:`check_element` runs before the first write, so ``rows`` is
    unchanged when this raises.
    """
    operand_rows = [basis.arm_indices(arm) for arm in spec.operands]
    check_element(spec, basis)
    if spec.kind == "beamsplitter":
        in1, in2, out1, out2 = operand_rows
        # Slices are views, and the swap below overwrites the input rows.
        a, b = rows[in1].copy(), rows[in2].copy()
        for freed, out in ((in1, out1), (in2, out2)):
            if freed != out:
                rows[freed] = rows[out]
        c, s = np.cos(spec.parameters[0]), np.sin(spec.parameters[0])
        rows[out1], rows[out2] = c * a + 1j * s * b, 1j * s * a + c * b
    elif spec.kind == "waveplate":
        h = operand_rows[0].start
        v = h + 1
        c, s = np.cos(spec.parameters[0]), np.sin(spec.parameters[0])
        rows[h], rows[v] = c * rows[h] - s * rows[v], s * rows[h] + c * rows[v]
    else:
        phase = spec.parameters[0] if spec.kind == "phaseshifter" else np.pi / 2.0
        rows[operand_rows[0]] *= np.exp(1j * phase)


def element_operator(spec: ElementSpec, basis: BasisDescriptor) -> Operator:
    """Materialize an :class:`ElementSpec` as an operator on ``basis``."""
    matrix = np.eye(basis.dimension, dtype=np.complex128)
    apply_element(spec, basis, matrix)
    return Operator(basis, matrix)


def arm_projector(basis: BasisDescriptor, arm: str) -> Operator:
    """Projector onto one arm, identity on polarization."""
    diag = np.zeros(basis.dimension, dtype=np.complex128)
    diag[basis.arm_indices(arm)] = 1.0
    return Operator(basis, np.diag(diag))

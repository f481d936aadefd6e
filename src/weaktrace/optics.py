"""Constructors for the optical-element operators used in interferometer stages.

Conventions, fixed globally:

* Beam splitters use the i-on-reflection convention: on the 2-dim mode pair
  the mixing matrix is ``[[cos t, i sin t], [i sin t, cos t]]``; ``t = pi/4``
  gives a 50/50 splitter.
* Wave plates apply the real rotation ``[[cos a, -sin a], [sin a, cos a]]``
  on the (H, V) factor of a single arm, so ``a = +pi/4`` maps H to the
  diagonal state (H+V)/sqrt2 and ``a = -pi/4`` to the antidiagonal one.
* A polarizer is not a stage element: :func:`polarizer_projector` builds the
  projector, and only post-selected statistics are modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import BasisDescriptor, Operator, UnknownLabelError, embed

#: Element kinds a stage may carry.
ELEMENT_KINDS = ("beamsplitter", "phaseshifter", "waveplate", "mirror")

POLARIZER_AXES = ("H", "V", "diag", "antidiag")


@dataclass(frozen=True)
class ElementSpec:
    """Declarative record of one optical element.

    ``operands`` holds arm labels: the routed 4-tuple
    ``(in1, in2, out1, out2)`` for a beamsplitter, a single arm otherwise.
    ``parameters`` holds angles in radians (none for a mirror).
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
        elif len(self.operands) != 1:
            raise ValueError(f"{self.kind} takes a single arm, got {self.operands}")


def _mixing_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


def beamsplitter(basis: BasisDescriptor, pair: tuple[str, str], angle: float) -> Operator:
    """In-place mixer on a pair of arms (identity on polarization).

    ``pair[0]`` maps to ``cos(angle)*pair[0] + i sin(angle)*pair[1]`` and
    symmetrically for ``pair[1]``; ``angle = 0`` is the identity and
    ``angle = pi/2`` a swap with phase i on both ports.
    """
    a, b = pair
    if a == b:
        raise ValueError(f"beamsplitter arms identical: {a!r}")
    return embed(_mixing_matrix(angle), basis, arms=(a, b))


def routed_beamsplitter(
    basis: BasisDescriptor,
    inputs: tuple[str, str],
    outputs: tuple[str, str],
    angle: float,
) -> Operator:
    """Two-port beamsplitter whose output beams carry (possibly) new arm labels.

    ``inputs[0]`` maps to ``cos(angle)*outputs[0] + i sin(angle)*outputs[1]``
    and ``inputs[1]`` to ``i sin(angle)*outputs[0] + cos(angle)*outputs[1]``.
    The matrix is the in-place mixer on ``outputs`` with its columns
    relabelled: column ``j`` is the mixer's column ``columns[j]``, where each
    input arm's indices swap with its output arm's.  Freed labels thus swap
    back onto the vacated ones, which keeps the operator unitary; those
    return branches carry no amplitude in feed-forward scenarios.  When inputs
    equal outputs this reduces to :func:`beamsplitter`.
    """
    in1, in2 = inputs
    out1, out2 = outputs
    if in1 == in2:
        raise ValueError(f"beamsplitter input arms identical: {in1!r}")
    if out1 == out2:
        raise ValueError(f"beamsplitter output arms identical: {out1!r}")
    for arm in (in1, in2, out1, out2):
        if arm not in basis.path_modes:
            raise UnknownLabelError(f"unknown arm {arm!r}")
    swaps = [(a, b) for a, b in ((in1, out1), (in2, out2)) if a != b]
    touched = [arm for pair in swaps for arm in pair]
    if len(set(touched)) != len(touched):
        raise ValueError(
            f"beamsplitter routing {inputs} -> {outputs} is not a disjoint relabeling"
        )
    columns = np.arange(basis.dimension)
    for a, b in swaps:
        ia, ib = list(basis.arm_indices(a)), list(basis.arm_indices(b))
        columns[ia], columns[ib] = ib, ia
    mixer = beamsplitter(basis, (out1, out2), angle)
    return Operator(basis, mixer.matrix[:, columns], unitary=True)


def waveplate(basis: BasisDescriptor, arm: str, angle: float) -> Operator:
    """Polarization rotation on a single arm; requires polarization."""
    if not basis.polarization_enabled:
        raise ValueError("waveplate requires a polarization-enabled basis")
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)
    return embed(rot, basis, arms=(arm,), on_polarization=True)


def polarizer_projector(basis: BasisDescriptor, axis: str) -> Operator:
    """Projector onto one polarization axis, identity on the path factor.

    ``axis`` is one of H, V, diag ((H+V)/sqrt2) or antidiag ((H-V)/sqrt2).
    The result is flagged as a projector and is not unitary.
    """
    if not basis.polarization_enabled:
        raise ValueError("polarizer requires a polarization-enabled basis")
    if axis not in POLARIZER_AXES:
        raise ValueError(f"unknown polarizer axis {axis!r}; expected one of {POLARIZER_AXES}")
    r = 1.0 / np.sqrt(2.0)
    kets = {
        "H": np.array([1.0, 0.0]),
        "V": np.array([0.0, 1.0]),
        "diag": np.array([r, r]),
        "antidiag": np.array([r, -r]),
    }
    ket = kets[axis].astype(np.complex128)
    return embed(np.outer(ket, ket.conj()), basis, on_polarization=True)


def arm_projector(basis: BasisDescriptor, arm: str) -> Operator:
    """Projector onto one arm, identity on polarization."""
    diag = np.zeros(basis.dimension, dtype=np.complex128)
    for i in basis.arm_indices(arm):
        diag[i] = 1.0
    return Operator(basis, np.diag(diag), projector=True)


def phaseshifter(basis: BasisDescriptor, arm: str, phase: float) -> Operator:
    """Multiply the amplitudes of one arm by ``exp(i*phase)``."""
    local = np.array([[np.exp(1j * phase)]], dtype=np.complex128)
    return embed(local, basis, arms=(arm,))


def mirror(basis: BasisDescriptor, arm: str) -> Operator:
    """Reflection off a mirror: phase i on the arm (i-on-reflection)."""
    return phaseshifter(basis, arm, np.pi / 2.0)


def element_operator(spec: ElementSpec, basis: BasisDescriptor) -> Operator:
    """Materialize an :class:`ElementSpec` as an operator on ``basis``."""
    if spec.kind == "beamsplitter":
        in1, in2, out1, out2 = spec.operands
        (angle,) = spec.parameters
        return routed_beamsplitter(basis, (in1, in2), (out1, out2), angle)
    if spec.kind == "waveplate":
        (arm,) = spec.operands
        (angle,) = spec.parameters
        return waveplate(basis, arm, angle)
    if spec.kind == "phaseshifter":
        (arm,) = spec.operands
        (phase,) = spec.parameters
        return phaseshifter(basis, arm, phase)
    if spec.kind == "mirror":
        (arm,) = spec.operands
        return mirror(basis, arm)
    raise ValueError(f"unknown element kind {spec.kind!r}")

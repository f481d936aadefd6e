"""Scenario staging and two-sided state evolution.

A :class:`Scenario` is an ordered list of stages, each a list of optical
elements, between a preselected state (boundary 0) and a postselected
state (final boundary); it builds the stage matrices once, at construction.
Boundary ``b`` denotes the instant after stage ``b``; the forward state is
the preselection pushed up to a boundary, the backward state is the
postselection pulled down to it through adjoint stages.  Both are computed
once per scenario, into the rows of :attr:`Scenario.boundary_states`, and
every state, amplitude and weak value reads them from there.  Transition
amplitudes pair the two at the same boundary, which makes the identity
amplitude boundary-independent by unitarity.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .optics import ElementSpec, apply_element
from .qstate import BasisDescriptor, DimensionError, Operator, StateVector, apply, inner

#: Sentinel node names usable in adjacency declarations.
SOURCE = "SOURCE"
DETECTOR = "DETECTOR"


class BoundaryError(IndexError):
    """Raised for boundaries that are not integers in ``0..len(stages)``."""


@dataclass(frozen=True)
class Stage:
    """One step: the optical elements it applies, in order.  It holds no matrix."""

    label: str
    elements: tuple[ElementSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))


@dataclass(frozen=True)
class Slot:
    """Named stage boundary where a weak coupling may be inserted."""

    name: str
    boundary: int


@dataclass(frozen=True)
class Scenario:
    """Immutable pre/post-selected interferometer description.

    ``adjacency`` lists undirected arm-graph edges; endpoints are arm labels
    or the SOURCE/DETECTOR sentinels, stored in canonical order: each edge's
    ends sorted, duplicates dropped, edges sorted.  ``coupling_slots`` name
    boundaries; slots named after an arm define its canonical coupling point.
    ``stage_matrices``, the read-only ``(n_stages, d, d)`` stack of each
    stage's elements applied to the identity, is built once here, so an
    element that does not fit the basis raises here and every stage is
    unitary by construction.  Normalization, adjacency, slots and labels are
    reported by ``scendsl.validate`` so that broken scenarios can be
    diagnosed instead of being unrepresentable.

    ``boundary_states`` holds the forward and backward states at every
    boundary as two read-only arrays, built on first use and kept here.
    """

    basis: BasisDescriptor
    stages: tuple[Stage, ...]
    preselect: StateVector
    postselect: StateVector
    adjacency: tuple[tuple[str, str], ...] = ()
    coupling_slots: tuple[Slot, ...] = ()
    name: str = ""
    stage_matrices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        edges = {tuple(sorted(edge)) for edge in self.adjacency}
        object.__setattr__(self, "adjacency", tuple(sorted(edges)))
        object.__setattr__(self, "coupling_slots", tuple(self.coupling_slots))
        if self.preselect.basis != self.basis or self.postselect.basis != self.basis:
            raise DimensionError("preselect/postselect basis differs from scenario basis")
        identity = np.eye(self.basis.dimension, dtype=np.complex128)
        matrices = np.tile(identity, (len(self.stages), 1, 1))
        for matrix, stage in zip(matrices, self.stages):
            for spec in stage.elements:
                apply_element(spec, self.basis, matrix)
        matrices.setflags(write=False)
        object.__setattr__(self, "stage_matrices", matrices)

    @property
    def n_boundaries(self) -> int:
        return len(self.stages) + 1

    @cached_property
    def boundary_states(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fwd, bwd)``, each ``(n_boundaries, d)``, by ``U @ row`` and ``U† @ row`` sweeps."""
        fwd, bwd = [self.preselect.amplitudes], [self.postselect.amplitudes]
        for matrix in self.stage_matrices:
            fwd.append(matrix @ fwd[-1])
        for matrix in self.stage_matrices[::-1]:
            bwd.insert(0, np.ascontiguousarray(matrix.conj().T) @ bwd[0])
        fwd, bwd = np.array(fwd), np.array(bwd)
        fwd.setflags(write=False)
        bwd.setflags(write=False)
        return fwd, bwd

    def check_boundary(self, boundary: int) -> int:
        """``boundary`` as a plain int; raises unless it is an integer in range."""
        try:
            index = operator.index(boundary)
        except TypeError:
            raise BoundaryError(f"boundary {boundary!r} is not an integer") from None
        if not 0 <= index <= len(self.stages):
            raise BoundaryError(
                f"boundary {boundary} out of range 0..{len(self.stages)}"
            )
        return index

    def canonical_slots(self) -> tuple[tuple[str, int], ...]:
        """Canonical ``(arm, boundary)`` coupling points for weak-value reports.

        Slots whose name matches an arm label define the canonical points,
        in checked boundary order (stable), the order text writes them in.
        A scenario with no arm-named slots reports every arm at the final
        boundary.
        """
        named = [
            (slot.name, slot.boundary)
            for slot in self.coupling_slots
            if slot.name in self.basis.path_modes
        ]
        if named:
            return tuple(sorted(named, key=lambda slot: self.check_boundary(slot[1])))
        final = len(self.stages)
        return tuple((arm, final) for arm in self.basis.path_modes)


def forward_state(scenario: Scenario, boundary: int) -> StateVector:
    """Preselected state evolved through the first ``boundary`` stages."""
    b = scenario.check_boundary(boundary)
    return StateVector(scenario.basis, scenario.boundary_states[0][b])


def backward_state(scenario: Scenario, boundary: int) -> StateVector:
    """Postselected state pulled back to ``boundary`` through adjoint stages.

    This is the bra side of the two-state pair, stored as a ket: pairing it
    with the forward state at the same boundary reproduces the full
    transition amplitude.
    """
    b = scenario.check_boundary(boundary)
    return StateVector(scenario.basis, scenario.boundary_states[1][b])


def transition_amplitude(scenario: Scenario, observable: Operator, boundary: int) -> complex:
    """``<postselect back-evolved| observable |preselect forward-evolved>``.

    With the identity observable this is the post-selection amplitude and
    does not depend on the boundary.
    """
    return inner(backward_state(scenario, boundary), apply(observable, forward_state(scenario, boundary)))


def postselect_probability(scenario: Scenario) -> float:
    """Probability of the post-selection outcome, ``|<psi_f|U|psi_i>|²``."""
    fwd, bwd = scenario.boundary_states
    return abs(complex(np.vdot(bwd[-1], fwd[-1]))) ** 2

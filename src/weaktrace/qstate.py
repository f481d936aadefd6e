"""Exact complex vector-space core: composite bases, states and operators.

Everything here is dense ``numpy.complex128``: the interferometers this
package targets have a few dozen path modes at most and an optional
two-level polarization factor, so dimensions stay in the tens (a
seven-loop generated chain with polarization has 54) and exactness
matters more than scale.  All values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

#: Tolerance for algebraic identities (unitarity, normalization).
#: Amplitudes in the bundled scenarios are small rationals times powers of
#: sqrt(2), so double precision keeps identities far below this bound.
ATOL = 1e-12

#: Polarization labels in basis order; the grammar and wave plates read
#: the two-level factor as (H, V).
POLARIZATION_AXES = ("H", "V")


class DimensionError(ValueError):
    """Raised when states/operators live on incompatible bases."""


class UnknownLabelError(ValueError):
    """Raised when an arm or polarization label is not part of a basis."""


@dataclass(frozen=True)
class BasisDescriptor:
    """Composite basis: ordered path modes, optionally tensored with polarization.

    Basis order is arm-major, polarization-minor: for modes ``(A, B)`` with
    polarization on, the order is ``A:H, A:V, B:H, B:V``.  Serialization and
    all amplitude arrays follow this order exactly.
    """

    path_modes: tuple[str, ...]
    polarization_enabled: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_modes", tuple(self.path_modes))
        if not self.path_modes:
            raise ValueError("basis needs at least one path mode")
        for label in self.path_modes:
            if not label:
                raise ValueError("empty arm label")
        if len(set(self.path_modes)) != len(self.path_modes):
            raise ValueError(f"duplicate arm labels in {self.path_modes}")

    @property
    def pol_dim(self) -> int:
        return 2 if self.polarization_enabled else 1

    @property
    def dimension(self) -> int:
        return len(self.path_modes) * self.pol_dim

    def index(self, arm: str, pol: str | None = None) -> int:
        """Flat index of the basis element ``|arm>`` (or ``|arm, pol>``)."""
        if arm not in self.path_modes:
            raise UnknownLabelError(f"unknown arm {arm!r}")
        arm_i = self.path_modes.index(arm)
        if not self.polarization_enabled:
            if pol is not None:
                raise ValueError("polarization is disabled for this basis")
            return arm_i
        if pol is None:
            raise ValueError(f"polarization label required for arm {arm!r}")
        if pol not in POLARIZATION_AXES:
            raise UnknownLabelError(f"unknown polarization {pol!r}")
        return arm_i * 2 + POLARIZATION_AXES.index(pol)

    def arm_indices(self, arm: str) -> tuple[int, ...]:
        """All flat indices belonging to one arm (1 or 2 entries)."""
        if arm not in self.path_modes:
            raise UnknownLabelError(f"unknown arm {arm!r}")
        arm_i = self.path_modes.index(arm)
        p = self.pol_dim
        return tuple(range(arm_i * p, arm_i * p + p))

    def labels(self) -> Iterator[tuple[str, str | None]]:
        """Yield ``(arm, pol)`` pairs in basis order (pol is None when disabled)."""
        for arm in self.path_modes:
            if self.polarization_enabled:
                for pol in POLARIZATION_AXES:
                    yield arm, pol
            else:
                yield arm, None


def _as_amplitude_array(values, dim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionError(f"expected {dim} amplitudes, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("non-finite amplitude")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a composite basis.

    Unnormalized intermediates are allowed; ``is_normalized`` flags whether
    the state currently has unit norm within ``ATOL``.
    """

    basis: BasisDescriptor
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "amplitudes", _as_amplitude_array(self.amplitudes, self.basis.dimension)
        )

    @classmethod
    def basis_state(cls, basis: BasisDescriptor, arm: str, pol: str | None = None) -> "StateVector":
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        amps[basis.index(arm, pol)] = 1.0
        return cls(basis, amps)

    @classmethod
    def from_terms(
        cls, basis: BasisDescriptor, terms: Mapping[tuple[str, str | None] | str, complex]
    ) -> "StateVector":
        """Build a state from ``{arm: amp}`` or ``{(arm, pol): amp}`` entries."""
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        for key, value in terms.items():
            arm, pol = key if isinstance(key, tuple) else (key, None)
            amps[basis.index(arm, pol)] += value
        return cls(basis, amps)

    def norm(self) -> float:
        """Euclidean norm; ``inf`` when finite amplitudes are too large to square."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.amplitudes))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= ATOL

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / n)

    def amplitude(self, arm: str, pol: str | None = None) -> complex:
        return complex(self.amplitudes[self.basis.index(arm, pol)])

    def arm_amplitudes(self, arm: str) -> np.ndarray:
        """Amplitude block of one arm (length 1, or 2 with polarization)."""
        return self.amplitudes[list(self.basis.arm_indices(arm))]

    def arm_norm(self, arm: str) -> float:
        return float(np.linalg.norm(self.arm_amplitudes(arm)))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix on a composite basis.

    Construction only converts, checks shape and finiteness, and freezes
    the matrix.  ``unitary`` is a fact about that matrix, computed (within
    ``ATOL``) the first time it is read and cached, so a caller that must
    enforce it pays for one check per operator.
    """

    basis: BasisDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = self.basis.dimension
        if mat.shape != (dim, dim):
            raise DimensionError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
            raise ValueError("non-finite matrix entry")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def unitary(self) -> bool:
        return is_unitary_matrix(self.matrix)

    def __matmul__(self, other: "Operator") -> "Operator":
        _require_same_basis(self.basis, other.basis)
        return Operator(self.basis, self.matrix @ other.matrix)


def _close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """``np.allclose(a, b, rtol=0, atol=atol)``, equal infinities included, minus its overhead."""
    with np.errstate(invalid="ignore"):
        return bool(np.all((np.abs(a - b) <= atol) | (a == b)))


def is_unitary_matrix(mat: np.ndarray, atol: float = ATOL) -> bool:
    return _close(mat.conj().T @ mat, np.eye(mat.shape[0]), atol)


def _require_same_basis(a: BasisDescriptor, b: BasisDescriptor) -> None:
    if a != b:
        raise DimensionError(f"basis mismatch: {a} vs {b}")


def identity(basis: BasisDescriptor) -> Operator:
    return Operator(basis, np.eye(basis.dimension))


def inner(bra: StateVector, ket: StateVector) -> complex:
    """Inner product ``<bra|ket>``, conjugate-linear in the first argument."""
    _require_same_basis(bra.basis, ket.basis)
    value = complex(np.vdot(bra.amplitudes, ket.amplitudes))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ValueError("non-finite inner product")
    return value


def apply(op: Operator, state: StateVector) -> StateVector:
    """Matrix-vector product ``op @ state``; preserves norm iff op is unitary."""
    _require_same_basis(op.basis, state.basis)
    return StateVector(state.basis, op.matrix @ state.amplitudes)


def adjoint(op: Operator) -> Operator:
    """Conjugate transpose.  ``adjoint(adjoint(op))`` equals ``op`` exactly."""
    return Operator(op.basis, op.matrix.conj().T)


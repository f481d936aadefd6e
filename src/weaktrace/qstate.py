"""Composite bases, and the state and operator records that live on them.

Everything here is dense ``numpy.complex128``: the interferometers this
package targets have a few dozen path modes at most and an optional
two-level polarization factor, so dimensions stay in the tens (a
seven-loop generated chain with polarization has 54) and exactness
matters more than scale.  :class:`StateVector` and :class:`Operator` are
plain records, a basis plus one read-only array checked for shape and
finiteness; the pipeline itself works on a scenario's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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

    @cached_property
    def _arm_ranges(self) -> dict[str, range]:
        p = self.pol_dim
        return {arm: range(i * p, i * p + p) for i, arm in enumerate(self.path_modes)}

    def arm_indices(self, arm: str) -> range:
        """All flat indices belonging to one arm (1 or 2 entries)."""
        try:
            return self._arm_ranges[arm]
        except KeyError:
            raise UnknownLabelError(f"unknown arm {arm!r}") from None

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
    if not np.isfinite(arr).all():
        raise ValueError("non-finite amplitude")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a composite basis, as one read-only array.

    Any norm is allowed here and ``norm()`` reports it; the parser and
    ``scendsl.validate`` require the pre- and post-selection to have unit
    norm within ``ATOL``.
    """

    basis: BasisDescriptor
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "amplitudes", _as_amplitude_array(self.amplitudes, self.basis.dimension)
        )

    def norm(self) -> float:
        """Euclidean norm; ``inf`` when finite amplitudes are too large to square."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix on a composite basis.

    Construction only converts, checks shape and finiteness, and freezes
    the matrix; :func:`is_unitary_matrix` tells whether it is unitary.
    """

    basis: BasisDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = self.basis.dimension
        if mat.shape != (dim, dim):
            raise DimensionError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("non-finite matrix entry")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def is_unitary_matrix(mat: np.ndarray) -> bool:
    """``U† U`` equals the identity within ``ATOL``: ``np.allclose`` (rtol 0) minus its overhead."""
    gram, eye = mat.conj().T @ mat, np.eye(mat.shape[0])
    with np.errstate(invalid="ignore"):
        return bool(np.all((np.abs(gram - eye) <= ATOL) | (gram == eye)))


def _require_same_basis(a: BasisDescriptor, b: BasisDescriptor) -> None:
    if a != b:
        raise DimensionError(f"basis mismatch: {a} vs {b}")


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


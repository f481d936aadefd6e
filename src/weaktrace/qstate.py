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

    @cached_property
    def _arm_slices(self) -> dict[str, slice]:
        p = self.pol_dim
        return {arm: slice(i * p, i * p + p) for i, arm in enumerate(self.path_modes)}

    def index(self, arm: str, pol: str | None = None) -> int:
        """Flat index of the basis element ``|arm>`` (or ``|arm, pol>``)."""
        rows = self._arm_slices.get(arm)
        if rows is None:
            raise UnknownLabelError(f"unknown arm {arm!r}")
        if not self.polarization_enabled:
            if pol is not None:
                raise ValueError("polarization is disabled for this basis")
            return rows.start
        if pol is None:
            raise ValueError(f"polarization label required for arm {arm!r}")
        if pol not in POLARIZATION_AXES:
            raise UnknownLabelError(f"unknown polarization {pol!r}")
        return rows.start + POLARIZATION_AXES.index(pol)

    def arm_indices(self, arm: str) -> slice:
        """One arm's flat indices as a slice: a contiguous run of 1 or 2, arm-major."""
        try:
            return self._arm_slices[arm]
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


def _frozen_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only complex copy of ``values``; raises unless it has ``shape`` and is finite."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise DimensionError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite {what}")
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
        dim = self.basis.dimension
        object.__setattr__(self, "amplitudes", _frozen_array(self.amplitudes, (dim,), "amplitude"))

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
        dim = self.basis.dimension
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, (dim, dim), "matrix entry"))


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


"""Weak values, exact finite-strength pointer coupling, and readout.

Two routes to the same physics live here:

* the analytic weak value, a ratio of transition amplitudes evaluated at a
  stage boundary from the scenario's forward and backward state rows;
* an exact simulation of von Neumann pointer couplings at finite strength.

A coupling of strength ``g`` to an arm projector conditionally translates a
Gaussian pointer (position variance ``sigma**2``, initially centered at 0)
by ``g`` on the projected branch and leaves the complementary branch alone.
The joint state thus stays exactly a sum of branches, kept as two arrays
with one row per branch: system amplitudes ``systems`` (B x d) and pointer
shifts ``shifts`` (B x N), B = 2**N.  Post-selected readout reduces to
closed-form Gaussian overlap integrals: for branch shifts ``a`` and ``b``,

    <phi_a|phi_b>    = exp(-(a-b)^2 / (8 sigma^2))
    <phi_a|x|phi_b>  = (a+b)/2 * <phi_a|phi_b>
    <phi_a|p|phi_b>  = i (a-b) / (4 sigma^2) * <phi_a|phi_b>

Each term carries both branches' post-selected weights, so skipping the
branches of weight exactly 0 is exact: pairing the L live branches costs
L**2, not B**2 (``fig1`` with a pointer on each canonical slot: L=3, B=32).
There is no perturbative truncation anywhere: weak-limit behavior is
observed by sweeping ``g`` downward, not assumed.

In the weak limit the post-selected position shift approaches
``g * Re(weak value)``; the momentum shift approaches
``2 g Var(p) Im(weak value)`` with ``Var(p) = 1/(4 sigma^2)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolution import Scenario
from .qstate import BasisDescriptor, Operator, StateVector, _require_same_basis

#: Below this post-selection amplitude magnitude the weak value is treated
#: as undefined: pre/post states are normalized, so an exact-zero overlap
#: signals an orthogonal (degenerate) post-selection rather than roundoff.
EPSILON_DENOMINATOR = 1e-10

#: Error floor used when fitting convergence orders on log-log data;
#: sequences entirely below it are reported as exactly converged.
FIT_FLOOR = 1e-13


class DegeneratePostselectionError(ValueError):
    """Post-selection orthogonal to the evolved preselection; weak value undefined."""


class UndefinedReadoutError(ValueError):
    """Post-selection probability vanished; pointer statistics undefined."""


@dataclass(frozen=True)
class WeakValueResult:
    """One weak value with the amplitudes it came from."""

    arm: str | None
    boundary: int
    value: complex
    numerator: complex
    denominator: complex


@dataclass(frozen=True)
class PointerSpec:
    """One Gaussian pointer weakly coupled to an arm at a stage boundary.

    ``strength`` is the conditional translation distance in pointer-position
    units; ``width`` is the position standard deviation sigma.
    """

    name: str
    arm: str
    boundary: int
    strength: float
    width: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.strength) and math.isfinite(self.width)):
            raise ValueError(f"non-finite pointer strength {self.strength} or width {self.width}")
        if not self.width > 0.0:
            raise ValueError(f"pointer width must be positive, got {self.width}")


@dataclass(frozen=True)
class Branch:
    """System component carrying one pointer shift assignment."""

    system: StateVector
    shifts: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PointerEnsemble:
    """Branch decomposition of the system after all couplings, as arrays.

    Row b of ``systems`` (B x d) is one system component, row b of ``shifts``
    (B x N) its pointer shifts (each 0 or that pointer's strength).  The rows
    sum to the uncoupled final forward state; all B = 2**N are kept, zeros too.
    """

    specs: tuple[PointerSpec, ...]
    basis: BasisDescriptor
    systems: np.ndarray
    shifts: np.ndarray

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(spec.width for spec in self.specs)

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """The rows as ``Branch`` objects, in row order, built on first use."""
        return tuple(
            Branch(StateVector(self.basis, system), tuple(shift.tolist()))
            for system, shift in zip(self.systems, self.shifts)
        )

    def total_system(self) -> StateVector:
        return StateVector(self.basis, self.systems.sum(axis=0))


@dataclass(frozen=True)
class PointerReadout:
    """Post-selected means for one pointer (shared post-selection probability)."""

    name: str
    arm: str
    mean_position_shift: float
    mean_momentum_shift: float
    postselection_probability: float


@dataclass(frozen=True)
class SweepEntry:
    g: float
    mean_position_shift: float
    shift_over_g: float | None
    deviation: float | None
    postselection_probability: float
    disturbance: float


@dataclass(frozen=True)
class SweepReport:
    """Convergence of ``shift/g`` toward ``Re(weak value)`` as ``g`` shrinks.

    ``fitted_shift_order`` is the log-log slope of the deviation versus g
    (``inf`` when every deviation sits below the numerical floor, i.e. the
    finite-g readout is already exact); ``fitted_disturbance_order`` is the
    same fit for ``|P(g) - P(0)|`` and is expected to be 2: the coupling
    leaves the post-selection probability unchanged to first order.
    """

    arm: str
    boundary: int
    width: float
    weak_value: complex
    p_zero: float
    entries: tuple[SweepEntry, ...]
    fitted_shift_order: float
    fitted_disturbance_order: float


def _ratio(scenario: Scenario, boundary: int, arm: str | None, observe) -> WeakValueResult:
    """``<bwd|observe(fwd)> / <bwd|fwd>`` on the two state rows of ``boundary``."""
    scenario.check_boundary(boundary)
    fwd, bwd = scenario.boundary_states
    denominator = complex(np.vdot(bwd[boundary], fwd[boundary]))
    numerator = complex(np.vdot(bwd[boundary], observe(fwd[boundary])))
    if not (cmath.isfinite(numerator) and cmath.isfinite(denominator)):
        raise ValueError("non-finite inner product")
    if abs(denominator) <= EPSILON_DENOMINATOR:
        raise DegeneratePostselectionError(
            f"post-selection amplitude {abs(denominator):.3e} below {EPSILON_DENOMINATOR:.0e}; "
            "weak value undefined"
        )
    return WeakValueResult(
        arm=arm,
        boundary=boundary,
        value=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
    )


def _arm_ratio(scenario: Scenario, arm: str, boundary: int) -> WeakValueResult:
    """Weak value of the projector onto ``arm``: the fwd row with the other rows zeroed."""
    on_arm = np.zeros(scenario.basis.dimension, dtype=bool)
    on_arm[list(scenario.basis.arm_indices(arm))] = True
    return _ratio(scenario, boundary, arm, lambda row: np.where(on_arm, row, 0.0))


def weak_value(
    scenario: Scenario, observable: Operator, boundary: int, arm: str | None = None
) -> WeakValueResult:
    """Ratio of the observable's transition amplitude to the post-selection amplitude."""
    _require_same_basis(observable.basis, scenario.basis)
    return _ratio(scenario, boundary, arm, lambda row: observable.matrix @ row)


def arm_weak_value(scenario: Scenario, arm: str, boundary: int | None = None) -> WeakValueResult:
    """Weak value of an arm projector, at its canonical boundary by default."""
    if boundary is None:
        boundary = dict(scenario.canonical_slots()).get(arm)
        if boundary is None:
            raise ValueError(f"arm {arm!r} has no canonical coupling slot")
    return _arm_ratio(scenario, arm, boundary)


def weak_value_table(scenario: Scenario) -> tuple[WeakValueResult, ...]:
    """Weak values at every canonical (arm, boundary) slot."""
    return tuple(_arm_ratio(scenario, arm, boundary) for arm, boundary in scenario.canonical_slots())


def couple_pointers(scenario: Scenario, pointers: list[PointerSpec]) -> PointerEnsemble:
    """Evolve the preselection with exact conditional-translation couplings.

    Pointers are applied at their stage boundaries in boundary order (the
    given order breaks ties at a shared boundary; projectors on distinct
    arms commute, so ties are harmless).  Each coupling splits every row
    into its complement (shifts kept) and its projected part (pointer
    shifted by the strength); stages act on all rows at once.  Exact at all
    strengths.
    """
    specs = tuple(pointers)
    for spec in specs:
        scenario.check_boundary(spec.boundary)
        if spec.arm not in scenario.basis.path_modes:
            raise ValueError(f"pointer {spec.name!r} targets unknown arm {spec.arm!r}")
    systems = scenario.preselect.amplitudes[None, :].copy()
    shifts = np.zeros((1, len(specs)))
    for boundary in range(scenario.n_boundaries):
        for k in [k for k, spec in enumerate(specs) if spec.boundary == boundary]:
            on_arm = np.zeros(systems.shape[1], dtype=bool)
            on_arm[list(scenario.basis.arm_indices(specs[k].arm))] = True
            systems = np.repeat(systems, 2, axis=0)
            systems[0::2, on_arm] = 0.0
            systems[1::2, ~on_arm] = 0.0
            shifts = np.repeat(shifts, 2, axis=0)
            shifts[1::2, k] += specs[k].strength
        if boundary < len(scenario.stages):
            systems = systems @ scenario.stages[boundary].unitary.matrix.T
    systems.setflags(write=False)
    shifts.setflags(write=False)
    return PointerEnsemble(specs=specs, basis=scenario.basis, systems=systems, shifts=shifts)


def postselect_and_readout(
    ensemble: PointerEnsemble, postselect: StateVector
) -> tuple[PointerReadout, ...]:
    """Project onto the post-selection and read mean pointer shifts.

    Rows of post-selected weight exactly 0 are skipped, which is exact.
    Position and momentum means come from the closed-form Gaussian matrix
    elements over the live rows, including all cross-pointer overlap
    factors; the returned post-selection probability is exact at the
    coupled strengths.
    """
    _require_same_basis(postselect.basis, ensemble.basis)
    weights = ensemble.systems @ postselect.amplitudes.conj()
    if not np.all(np.isfinite(weights)):
        raise ValueError("non-finite inner product")
    live = weights != 0.0
    weights, shifts = weights[live], ensemble.shifts[live]
    widths = np.array(ensemble.widths, dtype=np.float64)
    # A width whose square underflows gives 0/0 here; the finiteness check raises.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = shifts[:, None, :] - shifts[None, :, :]
        log_overlap = -np.sum(diff**2 / (8.0 * widths**2), axis=-1)
        cross = np.conj(weights)[:, None] * weights[None, :] * np.exp(log_overlap)
        probability = float(np.sum(cross).real)
        if probability <= 1e-30:
            raise UndefinedReadoutError(
                f"post-selection probability {probability:.3e} vanishes; readout undefined"
            )
        readouts = []
        for k, spec in enumerate(ensemble.specs):
            centers = (shifts[:, None, k] + shifts[None, :, k]) / 2.0
            mean_x = float(np.sum(cross * centers).real) / probability
            momenta = 1j * diff[:, :, k] / (4.0 * widths[k] ** 2)
            mean_p = float(np.sum(cross * momenta).real) / probability
            if not (math.isfinite(mean_x) and math.isfinite(mean_p)):  # NaN probability too
                raise UndefinedReadoutError(
                    f"pointer {spec.name!r} mean is not finite; readout undefined"
                )
            readouts.append(
                PointerReadout(
                    name=spec.name,
                    arm=spec.arm,
                    mean_position_shift=mean_x,
                    mean_momentum_shift=mean_p,
                    postselection_probability=probability,
                )
            )
    return tuple(readouts)


def _fit_order(xs: list[float], errors: list[float], floor: float = FIT_FLOOR) -> float:
    """Log-log slope of errors vs xs; ``inf`` when all errors sit at the floor."""
    points = [(x, e) for x, e in zip(xs, errors) if e > floor and x > 0.0]
    if not points:
        return math.inf
    if len(points) < 2:
        return math.nan
    lx = np.log([p[0] for p in points])
    le = np.log([p[1] for p in points])
    slope = np.polyfit(lx, le, 1)[0]
    return float(slope)


def weak_limit_sweep(
    scenario: Scenario, pointer: PointerSpec, g_values: list[float]
) -> SweepReport:
    """Exact finite-strength readouts over a descending strength schedule.

    ``g_values`` must be non-increasing and nonnegative; zero entries record
    the uncoupled baseline (shift exactly 0, probability P(0)) and are
    excluded from the fits.
    """
    gs = [float(g) for g in g_values]
    if any(g < 0.0 for g in gs):
        raise ValueError("coupling strengths must be nonnegative")
    if any(a <= b for a, b in zip(gs, gs[1:])):
        raise ValueError("coupling strengths must be strictly descending")
    analytic = arm_weak_value(scenario, pointer.arm, pointer.boundary)
    p_zero = abs(analytic.denominator) ** 2
    entries = []
    for g in gs:
        spec = PointerSpec(pointer.name, pointer.arm, pointer.boundary, g, pointer.width)
        ensemble = couple_pointers(scenario, [spec])
        (readout,) = postselect_and_readout(ensemble, scenario.postselect)
        shift = readout.mean_position_shift
        probability = readout.postselection_probability
        if g > 0.0:
            over_g = shift / g
            deviation = abs(over_g - analytic.value.real)
        else:
            over_g = None
            deviation = None
        entries.append(
            SweepEntry(
                g=g,
                mean_position_shift=shift,
                shift_over_g=over_g,
                deviation=deviation,
                postselection_probability=probability,
                disturbance=abs(probability - p_zero),
            )
        )
    fitted = [(e.g, e.deviation, e.disturbance) for e in entries if e.g > 0.0]
    shift_order = _fit_order([f[0] for f in fitted], [f[1] for f in fitted])
    disturbance_order = _fit_order([f[0] for f in fitted], [f[2] for f in fitted])
    return SweepReport(
        arm=pointer.arm,
        boundary=pointer.boundary,
        width=pointer.width,
        weak_value=analytic.value,
        p_zero=p_zero,
        entries=tuple(entries),
        fitted_shift_order=shift_order,
        fitted_disturbance_order=disturbance_order,
    )

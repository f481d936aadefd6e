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
shifts ``shifts`` (B x N).  Disjoint arm projectors give 0, so a boundary
adds one row per distinct arm coupled there, not per pointer: B =
prod_b (m_b + 1), m_b those arms at boundary b.  Post-selected readout
reduces to closed-form Gaussian overlap integrals: for shifts ``a``, ``b``,

    <phi_a|phi_b>    = exp(-(a-b)^2 / (8 sigma^2))
    <phi_a|x|phi_b>  = (a+b)/2 * <phi_a|phi_b>
    <phi_a|p|phi_b>  = i (a-b) / (4 sigma^2) * <phi_a|phi_b>

Each term carries both branches' post-selected weights, so skipping the
branches of weight exactly 0 is exact: pairing the L live branches costs
L**2, not B**2 (``fig1`` with a pointer on each canonical slot: L=3, B=16).
There is no perturbative truncation anywhere: weak-limit behavior is
observed by sweeping ``g`` downward, not assumed.

Neither the system rows nor which pointers each row carries depend on any
strength; a strength enters only the shifts.  So the rows are coupled once
into the rows plus a B x N hit mask, and one readout kernel reads the live
rows' shifts (L x N).  A sweep's one pointer needs neither: with its branch
weights ``w_on = <bwd|Pi|fwd>`` (the weak value's numerator) and ``w_off =
<bwd|(1 - Pi)|fwd>``, ``a = |w_on|**2``, ``c = Re(conj(w_off) w_on)`` and
``E = exp(-g**2 / (8 sigma**2))``, its readout is exactly ``P(g) =
|w_off|**2 + a + 2 c E`` and ``shift/g = (a + c E) / P(g)``: Re(weak value)
at E = 1 (AAV), the ABL probability ``a / (a + |w_off|**2)`` at E = 0.  As
``c`` has the factor ``w_on``, a lone pointer on an arm of vanishing
two-state amplitude leaves P(g) as it is.

In the weak limit the post-selected position shift approaches
``g * Re(weak value)``; the momentum shift approaches
``2 g Var(p) Im(weak value)`` with ``Var(p) = 1/(4 sigma^2)``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
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
    """One row as an object; kept only for the benchmark's traced branch counts."""

    system: StateVector
    shifts: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PointerEnsemble:
    """Branch decomposition of the system after all couplings, as arrays.

    Row b of ``systems`` (B x d) is one system component, row b of ``shifts``
    (B x N) its pointer shifts (each 0 or that pointer's strength).  The rows
    sum to the uncoupled final forward state; see ``_split_rows`` for B and
    the row order.  Rows of exactly 0 (an arm with no amplitude) are kept.
    """

    specs: tuple[PointerSpec, ...]
    basis: BasisDescriptor
    systems: np.ndarray
    shifts: np.ndarray

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """The rows as ``Branch`` objects, in row order, built on first use."""
        return tuple(
            Branch(StateVector(self.basis, system), tuple(shift.tolist()))
            for system, shift in zip(self.systems, self.shifts)
        )


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
    same fit for ``|P(g) - P(0)| = 2 |c| (1 - E)`` (see the module docstring),
    so it is 2 unless c = 0, where the disturbance is 0 at every g.  Each is
    the closed-form least-squares slope ``sum((u - mean u)(v - mean v)) /
    sum((u - mean u)**2)`` of v = log(error) against u = log(g); ``nan`` when
    fewer than two distinct log-strengths are left to fit.
    """

    arm: str
    boundary: int
    width: float
    weak_value: complex
    p_zero: float
    entries: tuple[SweepEntry, ...]
    fitted_shift_order: float
    fitted_disturbance_order: float


def _result(
    arm: str | None, boundary: int, numerator: complex, denominator: complex
) -> WeakValueResult:
    """``numerator / denominator``; raises if either is non-finite or the denominator degenerate."""
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


def weak_value(scenario: Scenario, observable: Operator, boundary: int) -> WeakValueResult:
    """Ratio of the observable's transition amplitude to the post-selection amplitude."""
    _require_same_basis(observable.basis, scenario.basis)
    b = scenario.check_boundary(boundary)
    fwd, bwd = scenario.boundary_states
    numerator = complex(np.vdot(bwd[b], observable.matrix @ fwd[b]))
    return _result(None, b, numerator, complex(np.vdot(bwd[b], fwd[b])))


def _arm_results(
    scenario: Scenario, slots: Sequence[tuple[str, int]]
) -> tuple[WeakValueResult, ...]:
    """Each (arm, boundary) slot's arm-projector weak value, boundaries checked.

    Each slot's numerator is the same ``vdot`` on a row of one zeroed
    buffer, and each boundary's denominator is computed once.  Slots are
    checked in order, so the first failing slot raises.
    """
    fwd, bwd = scenario.boundary_states
    observed = np.zeros((len(slots), fwd.shape[1]), dtype=fwd.dtype)
    denominators: dict[int, complex] = {}
    results = []
    for row, (arm, boundary) in zip(observed, slots):
        on_arm = scenario.basis.arm_indices(arm)
        b = scenario.check_boundary(boundary)
        if b not in denominators:
            denominators[b] = complex(np.vdot(bwd[b], fwd[b]))
        row[on_arm] = fwd[b, on_arm]
        results.append(_result(arm, b, complex(np.vdot(bwd[b], row)), denominators[b]))
    return tuple(results)


def arm_weak_value(scenario: Scenario, arm: str, boundary: int | None = None) -> WeakValueResult:
    """Weak value of an arm projector, at its canonical boundary by default."""
    if boundary is None:
        boundary = dict(scenario.canonical_slots()).get(arm)
        if boundary is None:
            raise ValueError(f"arm {arm!r} has no canonical coupling slot")
    return _arm_results(scenario, ((arm, boundary),))[0]


def weak_value_table(scenario: Scenario) -> tuple[WeakValueResult, ...]:
    """``arm_weak_value`` at every canonical (arm, boundary) slot, in slot order."""
    return _arm_results(scenario, scenario.canonical_slots())


def _split_rows(
    scenario: Scenario, specs: tuple[PointerSpec, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """A coupling's rows (B x d) and which pointers each row carries (B x N, bool).

    The one row starts as the stored forward state at the first coupled
    boundary (the final boundary when there are no pointers), read from
    ``scenario.boundary_states``.  From there, at each boundary every row
    splits into its part off the coupled arms, then one part per distinct
    coupled arm, carrying all that arm's pointers there, in reverse order of
    each arm's first pointer in ``specs``.  These are, in order, the rows of
    one doubling per pointer that do not project onto two arms, or an arm
    and its complement, at one boundary (those are exactly 0).  Each stage
    product after the start is a ``gemm`` on at least 2 rows, so the kept
    rows match bit for bit.  No strength enters.
    """
    arms: list[dict[str, list[int]]] = [{} for _ in range(scenario.n_boundaries)]
    for k, spec in enumerate(specs):
        boundary = scenario.check_boundary(spec.boundary)
        if spec.arm not in scenario.basis.path_modes:
            raise ValueError(f"pointer {spec.name!r} targets unknown arm {spec.arm!r}")
        arms[boundary].setdefault(spec.arm, []).append(k)
    first = next((b for b, coupled in enumerate(arms) if coupled), len(scenario.stages))
    systems = scenario.boundary_states[0][first][None, :]
    hits = np.zeros((1, len(specs)), dtype=bool)
    for boundary, coupled in enumerate(arms[first:], start=first):
        if coupled:
            rows, width = len(systems), len(coupled) + 1
            split = np.zeros((rows, width, scenario.basis.dimension), dtype=np.complex128)
            split[:, 0] = systems
            hits = np.repeat(hits[:, None], width, axis=1)
            for j, (arm, ks) in enumerate(reversed(coupled.items()), start=1):
                on_arm = scenario.basis.arm_indices(arm)
                split[:, j, on_arm] = split[:, 0, on_arm]
                split[:, 0, on_arm] = 0.0
                hits[:, j, ks] = True
            systems, hits = split.reshape(rows * width, -1), hits.reshape(rows * width, -1)
        if boundary < len(scenario.stages):
            systems = systems @ scenario.stage_matrices[boundary].T
    return systems, hits


def couple_pointers(scenario: Scenario, pointers: list[PointerSpec]) -> PointerEnsemble:
    """Evolve the preselection with exact conditional-translation couplings, at any strength.

    The rows come from ``_split_rows``, which builds the scenario's one cached
    ``boundary_states`` if nothing has yet; each row shifts every pointer it
    carries by ``0.0 + strength``, so a strength of -0.0 shifts by +0.0.
    """
    specs = tuple(pointers)
    systems, hits = _split_rows(scenario, specs)
    shifts = np.where(hits, 0.0 + np.array([spec.strength for spec in specs]), 0.0)
    systems.setflags(write=False)
    shifts.setflags(write=False)
    return PointerEnsemble(specs=specs, basis=scenario.basis, systems=systems, shifts=shifts)


def _read_shift_sets(
    weights: np.ndarray, shifts: np.ndarray, widths: np.ndarray
) -> tuple[np.float64, np.ndarray, np.ndarray]:
    """Post-selection probability and mean position and momentum (N each) of one shift set.

    ``weights`` are the L live rows' post-selected weights and ``shifts``
    their shifts (L x N).  The closed-form Gaussian matrix elements include
    all cross-pointer overlap factors.  Each L x L block is summed as one
    row of a contiguous copy of the terms, which numpy adds pairwise,
    exactly as it adds a lone block.  The terms from ``np.concatenate`` are
    not C-contiguous, so reshaping them directly gives a strided view that
    numpy adds sequentially, and that moves the last digit once L >= 3.
    Nothing is checked here; see ``_check_readout``.
    """
    live, n = shifts.shape
    # A width whose square underflows gives 0/0 here, and a vanishing
    # probability divides by 0; the readout check raises for both.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        quarter = 4.0 * widths**2
        diff = shifts[:, None, :] - shifts[None, :, :]
        log_overlap = np.add.reduce(diff**2 / (-2.0 * quarter), axis=-1)
        cross = (np.conj(weights)[:, None] * weights[None, :] * np.exp(log_overlap))[None]
        per_pointer = shifts.T[..., None]
        centers = (per_pointer + per_pointer.transpose(0, 2, 1)) / 2.0
        momenta = 1j * diff.transpose(2, 0, 1) / quarter[:, None, None]
        terms = np.concatenate((cross, cross * centers, cross * momenta))
        blocks = np.ascontiguousarray(terms).reshape(1 + 2 * n, live * live)
        sums = np.add.reduce(blocks, axis=1).real
        probability = sums[0]
        means = sums[1:] / probability
    return probability, means[:n], means[n:]


def _check_readout(probability: float, mean_x: list, mean_p: list, names: list) -> None:
    """Raise ``UndefinedReadoutError`` unless the probability and every mean are usable."""
    if probability <= 1e-30:
        raise UndefinedReadoutError(
            f"post-selection probability {probability:.3e} vanishes; readout undefined"
        )
    for name, x, p in zip(names, mean_x, mean_p):
        if not (math.isfinite(x) and math.isfinite(p)):  # NaN probability too
            raise UndefinedReadoutError(f"pointer {name!r} mean is not finite; readout undefined")


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
    widths = np.array([spec.width for spec in ensemble.specs], dtype=np.float64)
    probability, mean_x, mean_p = (
        a.tolist() for a in _read_shift_sets(weights[live], ensemble.shifts[live], widths)
    )
    _check_readout(probability, mean_x, mean_p, [spec.name for spec in ensemble.specs])
    return tuple(
        PointerReadout(spec.name, spec.arm, x, p, probability)
        for spec, x, p in zip(ensemble.specs, mean_x, mean_p)
    )


def _fit_order(xs: list[float], errors: list[float]) -> float:
    """Least-squares slope of ``log(error)`` against ``log(x)`` over errors above ``FIT_FLOOR``.

    In closed form, ``sum((u - mean u)(v - mean v)) / sum((u - mean u)**2)``
    with u = log(x), v = log(error) and each sum a ``math.fsum``.  ``inf``
    when no point is left (the readout is exact); ``nan`` for a single data
    point, which includes strengths whose logs coincide.
    """
    points = [(x, e) for x, e in zip(xs, errors) if e > FIT_FLOOR and x > 0.0]
    if not points:
        return math.inf
    lx = [math.log(x) for x, _ in points]
    # One point on the log-log axis; the fsum mean of equal logs can round off them.
    if min(lx) == max(lx):
        return math.nan
    le = [math.log(e) for _, e in points]
    mean_x = math.fsum(lx) / len(lx)
    mean_e = math.fsum(le) / len(le)
    dx = [u - mean_x for u in lx]
    return math.fsum(d * (v - mean_e) for d, v in zip(dx, le)) / math.fsum(d * d for d in dx)


def weak_limit_sweep(
    scenario: Scenario, pointer: PointerSpec, g_values: list[float]
) -> SweepReport:
    """Exact finite-strength readouts over a descending strength schedule.

    ``g_values`` must be finite, strictly descending and nonnegative, with
    at least one positive entry to fit; a final zero records the uncoupled
    baseline (shift exactly 0, probability P(0)) and is excluded from the
    fits.  ``pointer.strength`` is not used.  ``w_on`` (the weak value's own
    numerator) and ``w_off`` are read at the pointer's boundary from
    ``scenario.boundary_states``, so a null arm's deviation falls as g**2
    instead of sitting at a roundoff floor.  Every strength is read at once
    from the closed form in the module docstring, ``P(g) = |w_off|**2 + a +
    2 c E`` and ``shift/g = (a + c E) / P(g)``: Re(weak value) at E = 1
    (g << sigma, AAV), and at E = 0 (g >> sigma) ``a / (a + |w_off|**2)``,
    the ABL probability of the strong measurement {Pi, 1 - Pi}.  Its terms
    are formed and summed as the kernel summed two rows, so each entry keeps
    the kernel's bits.  The mean momentum, ``2 Im(conj(w_off) w_on) E g /
    (4 sigma**2) / P(g)``, is only checked; ``1 / (4 sigma**2)`` is taken
    first, as in the kernel's complex division, so the sweep refuses every
    width and strength the kernel refused (and, as a weight of exactly 0 is
    kept, also a slot where g / (4 sigma**2), or g**2 and 4 sigma**2,
    overflow).  A lone coupling forms the two weights from rows evolved past
    the boundary, so each entry matches it within 1e-15, not bit for bit.
    """
    gs = [float(g) for g in g_values]
    if not all(math.isfinite(g) for g in gs):
        raise ValueError("non-finite coupling strength")
    if any(g < 0.0 for g in gs):
        raise ValueError("coupling strengths must be nonnegative")
    if any(a <= b for a, b in zip(gs, gs[1:])):
        raise ValueError("coupling strengths must be strictly descending")
    if not any(g > 0.0 for g in gs):
        raise ValueError("coupling strengths need at least one positive value")
    analytic = arm_weak_value(scenario, pointer.arm, pointer.boundary)
    p_zero = abs(analytic.denominator) ** 2
    fwd, bwd = scenario.boundary_states
    b = analytic.boundary
    off = fwd[b].copy()
    off[scenario.basis.arm_indices(pointer.arm)] = 0.0
    off_weight = complex(np.vdot(bwd[b], off))
    if not cmath.isfinite(off_weight):
        raise ValueError("non-finite inner product")
    # The kernel's outer product: numpy rounds a complex product unlike Python.
    weights = np.array([off_weight, analytic.numerator])
    (off_norm, both), (_, on_norm) = np.conj(weights)[:, None] * weights
    strengths = np.array(gs)
    # A width whose square underflows gives 0/0 or 0 * inf, as in the kernel.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        quarter = 4.0 * np.square(pointer.width)
        overlap = np.exp(strengths**2 / (-2.0 * quarter))
        cross = both.real * overlap
        probabilities = (off_norm.real + cross) + (cross + on_norm.real)
        half = cross * (strengths / 2.0)
        shifts = (half + (half + on_norm.real * strengths)) / probabilities
        momenta = 2.0 * both.imag * overlap * (strengths * (1.0 / quarter)) / probabilities
    entries = []
    readouts = zip(gs, probabilities.tolist(), shifts.tolist(), momenta.tolist())
    for g, probability, shift, momentum in readouts:
        _check_readout(probability, [shift], [momentum], [pointer.name])
        over_g = shift / g if g > 0.0 else None
        deviation = abs(over_g - analytic.value.real) if g > 0.0 else None
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
        boundary=analytic.boundary,
        width=pointer.width,
        weak_value=analytic.value,
        p_zero=p_zero,
        entries=tuple(entries),
        fitted_shift_order=shift_order,
        fitted_disturbance_order=disturbance_order,
    )

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from weaktrace.cli import execute
from weaktrace.evolution import BoundaryError, Slot, forward_state
from weaktrace.optics import arm_projector
from weaktrace.qstate import ATOL, inner
from weaktrace.scendsl import parse_scenario
from weaktrace.weakmeas import (
    DegeneratePostselectionError,
    PointerSpec,
    UndefinedReadoutError,
    _fit_order,
    _read_shift_sets,
    arm_weak_value,
    couple_pointers,
    postselect_and_readout,
    weak_limit_sweep,
    weak_value,
    weak_value_table,
)

from oracles import (
    consistent_pointer_rows,
    exact_order_reference,
    fig1_stage_matrices,
    fig1_states,
    fig2_stage_matrices,
    fig2_states,
    full_sum_pointer_readout,
    grid_pointer_readout,
    polyfit_order_reference,
    read_shift_sets_reference,
)

SQ2 = np.sqrt(2.0)

#: Multi-pointer placements with their readouts as ``repr`` floats.  The fig1
#: and fig2 cases were written by the readout that looped over pointers,
#: before the batched kernel; their momenta are 0.  The phase case pins
#: nonzero momenta at a width whose scalar and array squares differ.
PINNED_READOUTS = json.loads(
    (Path(__file__).parent / "golden" / "multi-pointer-readouts.json").read_text(encoding="utf-8")
)

FIG1_WEAK_VALUES = {"A": 1.0, "D": 0.0, "B": 0.5, "C": -0.5, "E": 0.0}
FIG2_WEAK_VALUES = {"A": 1.0, "D": 0.0, "B": 1 / (2 * SQ2), "C": -1 / (2 * SQ2), "E": 0.0}

# Two-arm scenario with a relative phase: the arm projector's weak value is
# (1+i)/2, exercising the imaginary part (read out through momentum).
PHASE_TEXT = """\
modes P Q
preselect 1/sqrt2@P + 1/sqrt2@Q
stage phase
phaseshifter Q pi/2
slot Q
adjacency SOURCE P
adjacency SOURCE Q
adjacency P DETECTOR
adjacency Q DETECTOR
postselect 1/sqrt2@P + 1/sqrt2@Q
"""


@pytest.fixture(scope="module")
def phase_scenario():
    return parse_scenario(PHASE_TEXT)


class TestWeakValue:
    def test_fig1_values(self, fig1):
        for arm, expected in FIG1_WEAK_VALUES.items():
            result = arm_weak_value(fig1, arm)
            assert result.value == pytest.approx(expected, abs=ATOL)

    def test_fig2_values(self, fig2):
        for arm, expected in FIG2_WEAK_VALUES.items():
            result = arm_weak_value(fig2, arm)
            assert result.value == pytest.approx(expected, abs=ATOL)

    def test_result_consistency_invariant(self, fig1, fig2):
        for scenario in (fig1, fig2):
            for result in weak_value_table(scenario):
                assert result.value * result.denominator == pytest.approx(
                    result.numerator, abs=ATOL
                )
                assert abs(result.denominator) > 0

    def test_table_equals_arm_weak_value_per_slot(self, fig1, fig2, chains):
        # A True slot boundary is checked to 1 and reads row 1, not a boolean index.
        bool_slot = replace(fig1, coupling_slots=(Slot("A", True), Slot("B", 2)))
        for scenario in [fig1, fig2, *chains, bool_slot]:
            slots = scenario.canonical_slots()
            expected = tuple(arm_weak_value(scenario, arm, b) for arm, b in slots)
            assert weak_value_table(scenario) == expected, scenario.name
        assert weak_value_table(bool_slot)[0] == arm_weak_value(fig1, "A", 1)

    def test_complex_weak_value(self, phase_scenario):
        result = arm_weak_value(phase_scenario, "Q")
        assert result.value == pytest.approx(0.5 + 0.5j, abs=ATOL)

    def test_degenerate_postselection(self):
        scenario = parse_scenario("modes A B\npreselect 1@A\npostselect 1@B\n")
        with pytest.raises(DegeneratePostselectionError):
            weak_value(scenario, arm_projector(scenario.basis, "A"), 0)

    def test_sum_rule_at_fixed_boundary(self, fig1, fig2):
        for scenario in (fig1, fig2):
            for boundary in range(scenario.n_boundaries):
                total = sum(
                    weak_value(
                        scenario, arm_projector(scenario.basis, arm), boundary
                    ).value
                    for arm in scenario.basis.path_modes
                )
                assert total == pytest.approx(1.0, abs=ATOL)


class TestCouplePointers:
    def test_zero_strength_single_branch_structure(self, fig1):
        spec = PointerSpec("pA", "A", 2, 0.0)
        ensemble = couple_pointers(fig1, [spec])
        # Two branches (projected/complement), but no shift anywhere.
        assert all(shift == 0.0 for b in ensemble.branches for shift in b.shifts)
        np.testing.assert_allclose(
            ensemble.systems.sum(axis=0), forward_state(fig1, 3).amplitudes, atol=ATOL
        )

    def test_single_pointer_two_branches(self, fig1):
        spec = PointerSpec("pA", "A", 2, 0.1)
        ensemble = couple_pointers(fig1, [spec])
        assert len(ensemble.branches) == 2
        shifted = [b for b in ensemble.branches if b.shifts == (0.1,)]
        unshifted = [b for b in ensemble.branches if b.shifts == (0.0,)]
        assert len(shifted) == 1 and len(unshifted) == 1
        # The shifted branch is the arm-A component pushed to the end.
        on_a = shifted[0].system.amplitudes[fig1.basis.arm_indices("A")]
        assert np.linalg.norm(on_a) == pytest.approx(1 / SQ2, abs=ATOL)

    def test_branches_sum_to_forward_state(self, fig1, fig2):
        for scenario in (fig1, fig2):
            specs = [
                PointerSpec(arm, arm, boundary, 0.05)
                for arm, boundary in scenario.canonical_slots()
            ]
            ensemble = couple_pointers(scenario, specs)
            assert len(ensemble.branches) <= 2 ** len(specs)
            np.testing.assert_allclose(
                ensemble.systems.sum(axis=0), forward_state(scenario, 3).amplitudes, atol=ATOL
            )

    def test_shifts_are_zero_or_strength(self, fig1):
        specs = [
            PointerSpec(arm, arm, boundary, 0.07)
            for arm, boundary in fig1.canonical_slots()
        ]
        ensemble = couple_pointers(fig1, specs)
        for branch in ensemble.branches:
            assert all(shift in (0.0, 0.07) for shift in branch.shifts)

    def test_exclusive_arms_give_dead_branches(self, fig1):
        # Disjoint arm projectors give 0, so no row carries pointers on two
        # distinct arms coupled at one boundary; pointers on one arm share a row.
        specs = [
            PointerSpec(arm, arm, boundary, 0.05)
            for arm, boundary in fig1.canonical_slots()
        ] + [PointerSpec("B2", "B", 2, 0.05)]
        assert {s.arm for s in specs if s.boundary == 2} == {"A", "B", "C"}
        ensemble = couple_pointers(fig1, specs)
        on_b = [s.arm == "B" for s in specs]
        for hit in ensemble.shifts > 0:
            for boundary in range(fig1.n_boundaries):
                fired = {s.arm for s, h in zip(specs, hit) if h and s.boundary == boundary}
                assert len(fired) <= 1
            assert hit[on_b].all() or not hit[on_b].any()

    def test_invalid_arm_rejected(self, fig1):
        with pytest.raises(ValueError):
            couple_pointers(fig1, [PointerSpec("p", "Z", 1, 0.1)])

    def test_invalid_boundary_rejected(self, fig1):
        with pytest.raises(IndexError):
            couple_pointers(fig1, [PointerSpec("p", "A", 9, 0.1)])

    def test_non_integer_boundary_rejected(self, fig1):
        """A 1.5 boundary matches no stage boundary, so it would never couple."""
        with pytest.raises(BoundaryError):
            couple_pointers(fig1, [PointerSpec("p", "A", 1.5, 0.5)])
        with pytest.raises(BoundaryError):
            arm_weak_value(fig1, "A", 1.0)

    def test_numpy_integer_boundary_matches_int(self, fig1):
        """``True`` and numpy integers index one boundary row, as the plain int does."""
        for arm, boundary in (("B", np.int64(2)), ("A", True), ("D", np.int32(1))):
            result = arm_weak_value(fig1, arm, boundary)
            assert result == arm_weak_value(fig1, arm, int(boundary))
            assert type(result.boundary) is int
            projector = arm_projector(fig1.basis, arm)
            result = weak_value(fig1, projector, boundary)
            assert result == weak_value(fig1, projector, int(boundary))
            assert type(result.boundary) is int
            new, old = (
                postselect_and_readout(couple_pointers(fig1, [pointer]), fig1.postselect)
                for pointer in (
                    PointerSpec("p", arm, boundary, 0.5),
                    PointerSpec("p", arm, int(boundary), 0.5),
                )
            )
            assert new == old
            report = weak_limit_sweep(fig1, PointerSpec("p", arm, boundary, 0.0), [0.1])
            assert type(report.boundary) is int
        assert arm_weak_value(fig1, "A", True).value == pytest.approx(1.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            PointerSpec("p", "A", 1, 0.1, width=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["strength", "width"])
    def test_nonfinite_spec_rejected(self, field, value):
        values = {"strength": 0.1, "width": 1.0, field: value}
        with pytest.raises(ValueError):
            PointerSpec("p", "A", 1, **values)

    def test_arrays_match_branches_row_for_row(self, fig1, fig2):
        for scenario in (fig1, fig2):
            specs = [
                PointerSpec(arm, arm, boundary, 0.05 * (k + 1))
                for k, (arm, boundary) in enumerate(scenario.canonical_slots())
            ]
            ensemble = couple_pointers(scenario, specs)
            n, dim = len(specs), scenario.basis.dimension
            postselect_and_readout(ensemble, scenario.postselect)
            assert "branches" not in vars(ensemble), "readout built the Branch views"
            rows = math.prod(
                len({s.arm for s in specs if s.boundary == b}) + 1
                for b in range(scenario.n_boundaries)
            )
            assert ensemble.systems.shape == (rows, dim)
            assert ensemble.shifts.shape == (rows, n)
            assert len(ensemble.branches) == rows
            for system, shifts, branch in zip(
                ensemble.systems, ensemble.shifts, ensemble.branches
            ):
                np.testing.assert_array_equal(system, branch.system.amplitudes)
                assert tuple(shifts) == branch.shifts

    @staticmethod
    def _assert_rows_equal_longhand(scenario, pointers):
        specs = [PointerSpec(f"p{k}", *p) for k, p in enumerate(pointers)]
        ensemble = couple_pointers(scenario, specs)
        systems, shifts = consistent_pointer_rows(
            list(scenario.stage_matrices),
            scenario.preselect.amplitudes,
            pointers,
            scenario.basis.path_modes,
            scenario.basis.pol_dim,
        )
        np.testing.assert_array_equal(ensemble.systems, systems)
        np.testing.assert_array_equal(ensemble.shifts, shifts)

    @pytest.mark.parametrize(
        "placement", [*range(11), "shared-arm", "empty-arm"], ids=str
    )
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_rows_equal_consistent_longhand_split(self, name, placement, request):
        # N = 0 is one row, the final forward state.
        scenario = request.getfixturevalue(name)
        if placement == "shared-arm":
            # Two pointers on B at one boundary, with a pointer on C between them.
            pointers = [("B", 2, 0.3), ("C", 2, 0.2), ("B", 2, 0.1), ("A", 2, 0.4)]
        elif placement == "empty-arm":
            # F holds no amplitude at boundary 1, nor A at boundary 0.
            pointers = [("F", 1, 0.4), ("A", 0, 0.2), ("D", 1, 0.5)]
        else:
            rng = np.random.default_rng([placement, scenario.basis.pol_dim, 12])
            pointers = [
                (
                    str(rng.choice(scenario.basis.path_modes)),
                    int(rng.integers(scenario.n_boundaries)),
                    float(rng.uniform(0.05, 1.0)),
                )
                for _ in range(placement)
            ]
        self._assert_rows_equal_longhand(scenario, pointers)

    @pytest.mark.parametrize("n", range(6))
    def test_rows_equal_consistent_longhand_split_on_chains(self, chains, n):
        # Every pointer sits in the later half of the boundaries, so the rows
        # start from a stored forward state several stages in.
        for index, scenario in enumerate(chains):
            rng = np.random.default_rng([n, index, 25])
            late = scenario.n_boundaries // 2
            pointers = [
                (
                    str(rng.choice(scenario.basis.path_modes)),
                    int(rng.integers(late, scenario.n_boundaries)),
                    float(rng.uniform(0.05, 1.0)),
                )
                for _ in range(n)
            ]
            self._assert_rows_equal_longhand(scenario, pointers)

    def test_many_pointers_grow_rows_per_boundary(self, fig1):
        # Pointers cycling over fig1's five slots (D@1; A, B, C@2; E@3) add
        # rows per boundary, not per pointer: 2 * 4 * 2 rows, not 2**16.
        slots = fig1.canonical_slots()
        specs = [
            PointerSpec(f"p{k}", *slots[k % len(slots)], 0.05 + 0.01 * k) for k in range(16)
        ]
        assert couple_pointers(fig1, specs).systems.shape == (16, fig1.basis.dimension)
        # The all-2**N oracle takes 0.5 s at N = 10 and 2.6 s at N = 11.
        specs = specs[:10]
        readouts = postselect_and_readout(couple_pointers(fig1, specs), fig1.postselect)
        probability, mean_x, mean_p = full_sum_pointer_readout(
            fig1_stage_matrices(),
            *fig1_states(),
            [(s.arm, s.boundary, s.strength, s.width) for s in specs],
        )
        for k, readout in enumerate(readouts):
            assert readout.postselection_probability == pytest.approx(probability, abs=ATOL)
            assert readout.mean_position_shift == pytest.approx(mean_x[k], abs=ATOL)
            assert readout.mean_momentum_shift == pytest.approx(mean_p[k], abs=ATOL)


class TestReadout:
    def test_zero_strength_readout_is_baseline(self, fig1):
        ensemble = couple_pointers(fig1, [PointerSpec("pA", "A", 2, 0.0)])
        (readout,) = postselect_and_readout(ensemble, fig1.postselect)
        assert readout.mean_position_shift == pytest.approx(0.0, abs=ATOL)
        assert readout.mean_momentum_shift == pytest.approx(0.0, abs=ATOL)
        assert readout.postselection_probability == pytest.approx(0.25, abs=ATOL)

    def test_outer_arm_shift_is_exactly_g(self, fig1):
        # The complement branch misses the post-selection entirely, so the
        # pointer shifts by the full coupling strength at any g.
        for g in (0.4, 0.1, 0.025):
            ensemble = couple_pointers(fig1, [PointerSpec("pA", "A", 2, g)])
            (readout,) = postselect_and_readout(ensemble, fig1.postselect)
            assert readout.mean_position_shift == pytest.approx(g, abs=1e-10)

    def test_negative_weak_value_shifts_backwards(self, fig1):
        g = 0.05
        ensemble = couple_pointers(fig1, [PointerSpec("pC", "C", 2, g)])
        (readout,) = postselect_and_readout(ensemble, fig1.postselect)
        assert readout.mean_position_shift / g == pytest.approx(-0.5, abs=5e-3)

    def test_matches_grid_oracle_single_pointers(self, fig1, fig2):
        for scenario in (fig1, fig2):
            for arm, boundary in scenario.canonical_slots():
                for g in (0.5, 0.2, 0.05):
                    spec = PointerSpec(arm, arm, boundary, g)
                    ensemble = couple_pointers(scenario, [spec])
                    (readout,) = postselect_and_readout(ensemble, scenario.postselect)
                    weights = np.array(
                        [inner(scenario.postselect, b.system) for b in ensemble.branches]
                    )
                    shifts = np.array([b.shifts[0] for b in ensemble.branches])
                    p_ref, x_ref, p_mom_ref = grid_pointer_readout(weights, shifts, 1.0)
                    assert readout.postselection_probability == pytest.approx(
                        p_ref, abs=1e-6
                    )
                    assert readout.mean_position_shift == pytest.approx(x_ref, abs=1e-6)
                    assert readout.mean_momentum_shift == pytest.approx(
                        p_mom_ref, abs=1e-6
                    )

    def test_momentum_reads_imaginary_part(self, phase_scenario):
        sigma = 1.0
        for g in (0.1, 0.05, 0.025):
            ensemble = couple_pointers(
                phase_scenario, [PointerSpec("pQ", "Q", 1, g, width=sigma)]
            )
            (readout,) = postselect_and_readout(ensemble, phase_scenario.postselect)
            expected = g * 0.5 / (2 * sigma**2)  # 2 g Var(p) Im(wv)
            assert readout.mean_momentum_shift == pytest.approx(expected, rel=0.05)
            weights = np.array(
                [inner(phase_scenario.postselect, b.system) for b in ensemble.branches]
            )
            shifts = np.array([b.shifts[0] for b in ensemble.branches])
            _, _, p_ref = grid_pointer_readout(weights, shifts, sigma)
            assert readout.mean_momentum_shift == pytest.approx(p_ref, abs=1e-6)

    def test_zero_probability_readout_rejected(self):
        scenario = parse_scenario("modes A B\npreselect 1@A\npostselect 1@B\n")
        ensemble = couple_pointers(scenario, [PointerSpec("p", "A", 0, 0.1)])
        with pytest.raises(UndefinedReadoutError):
            postselect_and_readout(ensemble, scenario.postselect)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_live_branches_equal_full_sum(self, name, n, request):
        # The readout skips branches of post-selected weight exactly 0; the
        # oracle couples longhand and sums over all 2**n branches.
        scenario = request.getfixturevalue(name)
        stages, (pre, post), pol_dim = {
            "fig1": (fig1_stage_matrices(), fig1_states(), 1),
            "fig2": (fig2_stage_matrices(), fig2_states(), 2),
        }[name]
        rng = np.random.default_rng([n, pol_dim])
        pointers = [
            (
                str(rng.choice(scenario.basis.path_modes)),
                int(rng.integers(scenario.n_boundaries)),
                float(rng.uniform(0.05, 1.0)),
                float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(n)
        ]
        specs = [PointerSpec(f"p{k}", *p) for k, p in enumerate(pointers)]
        readouts = postselect_and_readout(couple_pointers(scenario, specs), scenario.postselect)
        probability, mean_x, mean_p = full_sum_pointer_readout(
            stages, pre, post, pointers, pol_dim
        )
        for k, readout in enumerate(readouts):
            assert readout.postselection_probability == pytest.approx(probability, abs=1e-12)
            assert readout.mean_position_shift == pytest.approx(mean_x[k], abs=1e-12)
            assert readout.mean_momentum_shift == pytest.approx(mean_p[k], abs=1e-12)

    @pytest.mark.parametrize("case", PINNED_READOUTS, ids=[c["id"] for c in PINNED_READOUTS])
    def test_readouts_equal_pinned_floats(self, case, request):
        # Bit for bit: a reordered sum moves the last digit, which the
        # 1e-12 oracle comparison above would not see.
        scenario = request.getfixturevalue(case["scenario"])
        specs = [PointerSpec(f"p{k}", *p) for k, p in enumerate(case["pointers"])]
        readouts = postselect_and_readout(couple_pointers(scenario, specs), scenario.postselect)
        assert [r.postselection_probability for r in readouts] == [case["probability"]] * len(specs)
        assert [r.mean_position_shift for r in readouts] == case["position"]
        assert [r.mean_momentum_shift for r in readouts] == case["momentum"]


def _sweep_matches_couplings(scenario, sigma):
    """Each sweep entry against a lone coupling at its strength, at every arm and boundary.

    The sweep takes its branch weights from the two-state rows, a coupling
    from rows evolved past the boundary, so the two agree to roundoff only.
    g = 1000 and 10 reach the strong regime, where the overlap E is 0.
    """
    gs = [1000.0, 10.0, 1.0, 0.5, 0.1, 0.01, 0.0]
    for arm in scenario.basis.path_modes:
        for boundary in range(scenario.n_boundaries):
            pointer = PointerSpec("p", arm, boundary, 0.0, sigma)
            report = weak_limit_sweep(scenario, pointer, gs)
            for g, entry in zip(gs, report.entries, strict=True):
                spec = PointerSpec("p", arm, boundary, g, sigma)
                ensemble = couple_pointers(scenario, [spec])
                (readout,) = postselect_and_readout(ensemble, scenario.postselect)
                assert entry.g == g
                assert entry.mean_position_shift == pytest.approx(
                    readout.mean_position_shift, rel=1e-15, abs=1e-15
                )
                assert entry.postselection_probability == pytest.approx(
                    readout.postselection_probability, abs=1e-15
                )


class TestWeakLimitSweep:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_entries_equal_one_coupling_per_strength(self, name, sigma, request):
        _sweep_matches_couplings(request.getfixturevalue(name), sigma)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_chain_entries_equal_one_coupling_per_strength(self, chains, sigma):
        for scenario in chains:
            _sweep_matches_couplings(scenario, sigma)

    @pytest.mark.parametrize("arm", ["D", "E"])
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_null_arm_deviation_converges_as_g_squared(self, name, arm, request):
        # A null arm's on-arm weight is the weak value's own vanishing
        # numerator, so shift/g misses the weak value by O(g**2): 10x less g
        # is 100x less deviation.  A weight evolved apart from that numerator
        # leaves a flat roundoff floor instead.
        scenario = request.getfixturevalue(name)
        boundary = dict(scenario.canonical_slots())[arm]
        report = weak_limit_sweep(scenario, PointerSpec("p", arm, boundary, 0.0), [0.5, 0.1, 0.01])
        at_tenth, at_hundredth = (e.deviation for e in report.entries[1:])
        assert at_hundredth <= at_tenth / 50

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_entries_equal_two_row_kernel_bits(self, fig1, fig2, chains, sigma):
        # The closed form forms and sums the terms as the kernel does for the
        # live rows of one pointer's split, off the arm then on it.
        gs = [1000.0, 10.0, 1.0, 0.5, 0.1, 0.01, 0.0]
        for scenario in [fig1, fig2, *chains]:
            fwd, bwd = scenario.boundary_states
            for arm in scenario.basis.path_modes:
                for boundary in range(scenario.n_boundaries):
                    pointer = PointerSpec("p", arm, boundary, 0.0, sigma)
                    report = weak_limit_sweep(scenario, pointer, gs)
                    off = fwd[boundary].copy()
                    off[scenario.basis.arm_indices(arm)] = 0.0
                    on_weight = arm_weak_value(scenario, arm, boundary).numerator
                    weights = np.array([np.vdot(bwd[boundary], off), on_weight])
                    live = weights != 0.0
                    for g, entry in zip(gs, report.entries, strict=True):
                        shifts = np.array([[0.0], [g]])[live]
                        probability, (shift,), _ = _read_shift_sets(
                            weights[live], shifts, np.array([sigma])
                        )
                        assert entry.postselection_probability == probability
                        assert entry.mean_position_shift == shift

    @pytest.mark.parametrize("arm", ["D", "E"])
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_null_arm_pointer_leaves_postselection_unchanged(self, name, arm, request):
        # P(g) - P(0) = -2 c (1 - E), and c = Re(conj(w_off) w_on) carries the
        # vanishing on-arm amplitude: no strength, up to a strong
        # measurement, disturbs the post-selection through a lone pointer.
        scenario = request.getfixturevalue(name)
        boundary = dict(scenario.canonical_slots())[arm]
        gs = [1000.0, 100.0, 10.0, 1.0, 0.1, 0.01, 0.0]
        report = weak_limit_sweep(scenario, PointerSpec("p", arm, boundary, 0.0), gs)
        p_zero = report.entries[-1].postselection_probability
        for g, entry in zip(gs, report.entries, strict=True):
            assert abs(entry.postselection_probability - p_zero) <= 1e-15
            assert entry.disturbance <= 1e-15
            ensemble = couple_pointers(scenario, [PointerSpec("p", arm, boundary, g)])
            (readout,) = postselect_and_readout(ensemble, scenario.postselect)
            assert abs(readout.postselection_probability - p_zero) <= 1e-15

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_undefined_readout_raised_on_both_paths(self, name, request):
        # sigma**2 is subnormal, so the momentum factor 1 / (4 sigma**2)
        # overflows and every slot's mean is 0 * inf.  At 1e-155 and g = 0.01
        # the quotient g / (4 sigma**2) is still finite, 2.5e307.
        scenario = request.getfixturevalue(name)
        for arm in scenario.basis.path_modes:
            for boundary in range(scenario.n_boundaries):
                for width, g in ((1e-160, 0.5), (1e-155, 0.01)):
                    pointer = PointerSpec("p", arm, boundary, 0.0, width)
                    with pytest.raises(UndefinedReadoutError, match="not finite"):
                        weak_limit_sweep(scenario, pointer, [g, 0.0])
                    ensemble = couple_pointers(scenario, [replace(pointer, strength=g)])
                    with pytest.raises(UndefinedReadoutError, match="not finite"):
                        postselect_and_readout(ensemble, scenario.postselect)

    def test_inner_arm_converges_to_half(self, fig1):
        report = weak_limit_sweep(
            fig1, PointerSpec("pB", "B", 2, 0.0), [0.2, 0.1, 0.05]
        )
        for entry in report.entries:
            assert entry.shift_over_g == pytest.approx(0.5, abs=0.02)
        assert report.fitted_shift_order >= 1.0

    def test_dark_arm_shift_vanishes(self, fig1):
        report = weak_limit_sweep(
            fig1, PointerSpec("pE", "E", 3, 0.0), [0.2, 0.1, 0.05]
        )
        for entry in report.entries:
            assert abs(entry.mean_position_shift) <= 1e-12

    def test_zero_entry_reports_baseline(self, fig1):
        report = weak_limit_sweep(fig1, PointerSpec("pB", "B", 2, 0.0), [0.1, 0.0])
        tail = report.entries[-1]
        assert tail.mean_position_shift == 0.0
        assert tail.postselection_probability == pytest.approx(report.p_zero, abs=ATOL)
        assert tail.shift_over_g is None

    def test_disturbance_is_second_order(self, fig1):
        report = weak_limit_sweep(
            fig1, PointerSpec("pC", "C", 2, 0.0), [0.2, 0.1, 0.05, 0.025]
        )
        assert report.fitted_disturbance_order == pytest.approx(2.0, abs=0.1)

    def test_non_descending_rejected(self, fig1):
        with pytest.raises(ValueError):
            weak_limit_sweep(fig1, PointerSpec("pB", "B", 2, 0.0), [0.1, 0.2])

    def test_negative_rejected(self, fig1):
        with pytest.raises(ValueError):
            weak_limit_sweep(fig1, PointerSpec("pB", "B", 2, 0.0), [0.1, -0.1])

    @pytest.mark.parametrize("g_values", [[0.0], []])
    def test_no_positive_strength_rejected(self, fig1, g_values):
        with pytest.raises(ValueError, match="positive"):
            weak_limit_sweep(fig1, PointerSpec("pB", "B", 2, 0.0), g_values)

    def test_cli_zero_strength_exits_2(self, capsys):
        assert execute(["sweep", "fig1", "--arm", "B", "--g", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_degenerate_postselection_rejected(self):
        scenario = parse_scenario("modes A B\npreselect 1@A\npostselect 1@B\n")
        with pytest.raises(DegeneratePostselectionError):
            weak_limit_sweep(scenario, PointerSpec("p", "A", 0, 0.0), [0.1])

    @pytest.mark.parametrize(
        "g_values",
        [[math.inf], [math.nan], [0.5, math.nan], [math.nan, 0.5]],
        ids=["inf", "nan", "0.5-nan", "nan-0.5"],
    )
    def test_nonfinite_strength_rejected(self, fig1, g_values):
        with pytest.raises(ValueError, match="non-finite"):
            weak_limit_sweep(fig1, PointerSpec("pB", "B", 2, 0.0), g_values)

    @pytest.mark.parametrize("option", [["--g", "inf"], ["--g", "0.5", "--sigma", "inf"]])
    def test_cli_nonfinite_exits_2(self, option, capsys):
        assert execute(["sweep", "fig1", "--arm", "B", *option]) == 2
        assert "nan" not in capsys.readouterr().out.lower()


#: The benchmark's sweep strength grid.
FIT_GRID = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01)


def _fit_schedules(count=400, noise=0.02):
    """Seeded 2-4-point descending schedules with errors near ``c g**p``.

    Half the schedules draw from ``FIT_GRID``; half draw log-uniform
    strengths in 1e-4..1e2 whose logs are at least 0.1 decade apart.  The
    exponent p lies in [1, 3] and each error within ``noise`` decades of the
    power law, so no slope is near 0; the smallest error is above the fit
    floor.
    """
    rng = np.random.default_rng(2202)
    for _ in range(count):
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            xs = sorted(rng.choice(FIT_GRID, n, replace=False).tolist(), reverse=True)
        else:
            exponents = [0.0]
            while min(np.diff(exponents), default=0.0) < 0.1:
                exponents = sorted(rng.uniform(-4.0, 2.0, n).tolist())
            xs = [10.0**e for e in reversed(exponents)]
        p = float(rng.uniform(1.0, 3.0))
        c = 10.0 ** rng.uniform(-10.0, 0.0) / xs[-1] ** p
        yield xs, [c * x**p * 10.0 ** rng.uniform(-noise, noise) for x in xs], p


class TestFitOrder:
    def test_matches_exact_rational_slope(self):
        for xs, errors, _ in _fit_schedules():
            exact = exact_order_reference(xs, errors)
            assert abs(_fit_order(xs, errors) - exact) <= 2e-15 * abs(exact)

    def test_exact_power_law_returns_its_exponent(self):
        for xs, errors, p in _fit_schedules(noise=0.0):
            assert _fit_order(xs, errors) == pytest.approx(p, rel=0.0, abs=1e-14)

    def test_agrees_with_polyfit(self):
        for xs, errors, _ in _fit_schedules():
            assert _fit_order(xs, errors) == pytest.approx(
                polyfit_order_reference(xs, errors), rel=1e-10
            )

    @pytest.mark.parametrize("arm", ["B", "C"])
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_golden_schedule_orders_agree_with_polyfit(self, name, arm, request):
        scenario = request.getfixturevalue(name)
        boundary = dict(scenario.canonical_slots())[arm]
        report = weak_limit_sweep(scenario, PointerSpec("p", arm, boundary, 0.0), [0.5, 0.1, 0.01])
        gs = [e.g for e in report.entries]
        deviations = [e.deviation for e in report.entries]
        disturbances = [e.disturbance for e in report.entries]
        assert report.fitted_shift_order == pytest.approx(
            polyfit_order_reference(gs, deviations), rel=1e-10
        )
        assert report.fitted_disturbance_order == pytest.approx(
            polyfit_order_reference(gs, disturbances), rel=1e-10
        )

    @pytest.mark.parametrize(
        "gs",
        [
            [1e300, 9.999999999999999e299],
            # Three equal logs whose mean, fsum / 3, rounds off them.
            [8.626903632435094e299, 8.626903632435093e299, 8.626903632435091e299],
        ],
        ids=["two", "three"],
    )
    def test_coinciding_log_strengths_not_fittable(self, gs):
        assert len({math.log(g) for g in gs}) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(_fit_order(gs, [0.5, 0.25, 0.125][: len(gs)]))


DEGENERATE_TEXT = "modes A B\npreselect 1@A\npostselect 1@B\n"


def test_degenerate_postselection_table_rejected(fig1):
    message = "post-selection amplitude 0.000e+00 below 1e-10; weak value undefined"
    scenario = parse_scenario(DEGENERATE_TEXT)
    with pytest.raises(DegeneratePostselectionError) as table_error:
        weak_value_table(scenario)
    with pytest.raises(DegeneratePostselectionError) as slot_error:
        arm_weak_value(scenario, "A")
    assert str(table_error.value) == str(slot_error.value) == message
    out_of_range = replace(fig1, coupling_slots=(Slot("B", 2), Slot("A", 9)))
    with pytest.raises(BoundaryError) as table_error:
        weak_value_table(out_of_range)
    with pytest.raises(BoundaryError) as slot_error:
        arm_weak_value(out_of_range, "A", 9)
    assert str(table_error.value) == str(slot_error.value) == "boundary 9 out of range 0..3"


@pytest.mark.parametrize("sets", [1, 2, 3, 4])
def test_readout_kernel_equals_block_by_block_sums(sets):
    """One reduction over a contiguous copy adds each block as a lone block is added.

    Each case draws ``sets`` shift sets of the same rows, read one at a
    time.  L up to 7 keeps a block within numpy's unrolled pairwise leaf
    (128 terms); L 12-40 with N 1-3 reaches its recursive branch.
    """
    rng = np.random.default_rng(sets)
    small = [(n, live) for n in range(1, 15) for live in range(1, 8)]
    large = [(n, live) for n in range(1, 4) for live in (12, 13, 16, 23, 31, 40)]
    for n, live in small + large:
        weights = rng.normal(size=live) + 1j * rng.normal(size=live)
        hits = rng.random((1, live, n)) < 0.5
        shifts = np.where(hits, rng.uniform(0.01, 1.0, (sets, 1, 1)), 0.0)
        widths = rng.uniform(0.5, 2.0, n)
        for k in range(sets):
            got = _read_shift_sets(weights, shifts[k], widths)
            expected = read_shift_sets_reference(weights, shifts[k][None], widths)
            for a, b in zip(got, expected, strict=True):
                assert np.shape(a) == b.shape[1:] and (a == b[0]).all(), (sets, k, n, live)


@pytest.mark.parametrize("width", [1e-200, 1e-160])
def test_tiny_width_readout_rejected(fig1, width):
    ensemble = couple_pointers(fig1, [PointerSpec("p", "B", 2, 0.1, width)])
    with pytest.raises(UndefinedReadoutError):
        postselect_and_readout(ensemble, fig1.postselect)


@pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
def test_cli_tiny_width_exits_2(sigma, capsys):
    argv = ["sweep", "fig1", "--arm", "B", "--g", "0.1", "--sigma", sigma, "--format", "json"]
    assert execute(argv) == 2
    assert capsys.readouterr().out == ""

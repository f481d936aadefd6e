import numpy as np
import pytest

from weaktrace.evolution import (
    BoundaryError,
    Scenario,
    Stage,
    backward_state,
    forward_state,
    postselect_probability,
    transition_amplitude,
)
from weaktrace.optics import ElementSpec, arm_projector
from weaktrace.qstate import ATOL, BasisDescriptor, Operator, StateVector, adjoint, apply
from weaktrace.scendsl import parse_scenario

from oracles import (
    basis_vector,
    evolve_backward,
    evolve_forward,
    fig1_stage_matrices,
    fig1_states,
    fig2_stage_matrices,
    fig2_states,
    oracle_amplitude,
)

SQ2 = np.sqrt(2.0)


class TestForwardStateFig1:
    def test_after_first_split(self, fig1):
        amps = forward_state(fig1, 1).amplitudes
        assert amps[fig1.basis.index("D")] == pytest.approx(1 / SQ2, abs=ATOL)
        assert amps[fig1.basis.index("A")] == pytest.approx(1j / SQ2, abs=ATOL)

    def test_boundary_zero_is_preselect(self, fig1):
        np.testing.assert_array_equal(
            forward_state(fig1, 0).amplitudes, fig1.preselect.amplitudes
        )

    def test_dark_port_after_recombination(self, fig1):
        assert abs(forward_state(fig1, 3).amplitudes[fig1.basis.index("E")]) <= ATOL

    def test_norm_preserved_at_every_boundary(self, fig1):
        for boundary in range(fig1.n_boundaries):
            assert forward_state(fig1, boundary).norm() == pytest.approx(1.0, abs=ATOL)

    def test_matches_bruteforce_product(self, fig1):
        stages = fig1_stage_matrices()
        pre, _ = fig1_states()
        for boundary in range(4):
            expected = evolve_forward(stages, pre, boundary)
            np.testing.assert_allclose(
                forward_state(fig1, boundary).amplitudes, expected, atol=ATOL
            )

    def test_out_of_range(self, fig1):
        with pytest.raises(BoundaryError):
            forward_state(fig1, 4)
        with pytest.raises(BoundaryError):
            forward_state(fig1, -1)

    def test_non_integer_rejected(self, fig1):
        with pytest.raises(BoundaryError, match="not an integer"):
            forward_state(fig1, 1.0)


class TestForwardStateFig2:
    def test_inside_inner_loop(self, fig2):
        amps, index = forward_state(fig2, 2).amplitudes, fig2.basis.index
        # (i|B>|diag> + |C>|antidiag>)/2 on top of (i/sqrt2)|A>|H>
        assert amps[index("A", "H")] == pytest.approx(1j / SQ2, abs=ATOL)
        assert amps[index("B", "H")] == pytest.approx(1j / (2 * SQ2), abs=ATOL)
        assert amps[index("B", "V")] == pytest.approx(1j / (2 * SQ2), abs=ATOL)
        assert amps[index("C", "H")] == pytest.approx(1 / (2 * SQ2), abs=ATOL)
        assert amps[index("C", "V")] == pytest.approx(-1 / (2 * SQ2), abs=ATOL)

    def test_matches_bruteforce_product(self, fig2):
        stages = fig2_stage_matrices()
        pre, _ = fig2_states()
        for boundary in range(4):
            np.testing.assert_allclose(
                forward_state(fig2, boundary).amplitudes,
                evolve_forward(stages, pre, boundary),
                atol=ATOL,
            )

    def test_outgoing_arm_carries_vertical_light(self, fig2):
        amps = forward_state(fig2, 3).amplitudes
        on_e = amps[fig2.basis.arm_indices("E")]
        assert np.linalg.norm(on_e) == pytest.approx(0.5, abs=ATOL)
        assert abs(amps[fig2.basis.index("E", "H")]) <= ATOL


class TestBackwardState:
    def test_final_boundary_is_postselect(self, fig1):
        np.testing.assert_array_equal(
            backward_state(fig1, 3).amplitudes, fig1.postselect.amplitudes
        )

    def test_fig1_vanishes_on_ingoing_arm(self, fig1):
        assert abs(backward_state(fig1, 1).amplitudes[fig1.basis.index("D")]) <= ATOL

    def test_fig2_ingoing_arm_survives_with_vertical_polarization(self, fig2):
        amps = backward_state(fig2, 1).amplitudes
        on_d = amps[fig2.basis.arm_indices("D")]
        assert np.linalg.norm(on_d) == pytest.approx(0.5, abs=ATOL)
        assert abs(amps[fig2.basis.index("D", "H")]) <= ATOL

    def test_matches_bruteforce_adjoint_product(self, fig1, fig2):
        for scenario, stages, states in (
            (fig1, fig1_stage_matrices(), fig1_states()),
            (fig2, fig2_stage_matrices(), fig2_states()),
        ):
            _, post = states
            for boundary in range(4):
                np.testing.assert_allclose(
                    backward_state(scenario, boundary).amplitudes,
                    evolve_backward(stages, post, boundary),
                    atol=ATOL,
                )


class TestTransitionAmplitude:
    def test_identity_amplitude_is_i_over_2_everywhere(self, fig1):
        one = Operator(fig1.basis, np.eye(fig1.basis.dimension))
        for boundary in range(fig1.n_boundaries):
            assert transition_amplitude(fig1, one, boundary) == pytest.approx(
                0.5j, abs=ATOL
            )

    def test_identity_amplitude_matches_oracle(self, fig1):
        stages = fig1_stage_matrices()
        pre, post = fig1_states()
        assert oracle_amplitude(stages, pre, post) == pytest.approx(0.5j, abs=ATOL)

    def test_outgoing_projector_amplitude_vanishes(self, fig1, fig2):
        for scenario in (fig1, fig2):
            proj = arm_projector(scenario.basis, "E")
            assert abs(transition_amplitude(scenario, proj, 3)) <= ATOL

    def test_fig2_outgoing_amplitude_zero_despite_population(self, fig2):
        proj = arm_projector(fig2.basis, "E")
        assert abs(transition_amplitude(fig2, proj, 3)) <= ATOL
        on_e = forward_state(fig2, 3).amplitudes[fig2.basis.arm_indices("E")]
        assert np.linalg.norm(on_e) > 0.2

    def test_two_state_overlap_boundary_invariant(self, fig1):
        values = [
            np.vdot(backward_state(fig1, b).amplitudes, forward_state(fig1, b).amplitudes)
            for b in range(fig1.n_boundaries)
        ]
        for value in values[1:]:
            assert value == pytest.approx(values[0], abs=ATOL)


class TestPostselectProbability:
    def test_fig_scenarios(self, fig1, fig2):
        assert postselect_probability(fig1) == pytest.approx(0.25, abs=ATOL)
        assert postselect_probability(fig2) == pytest.approx(0.25, abs=ATOL)

    def test_trivial_identity_scenario(self):
        text = "modes A B\npreselect 1@A\npostselect 1@A\n"
        assert postselect_probability(parse_scenario(text)) == 1.0

    def test_orthogonal_pre_post(self):
        text = "modes A B\npreselect 1@A\npostselect 1@B\n"
        assert postselect_probability(parse_scenario(text)) == 0.0


class TestScenarioStructure:
    def test_total_unitary_is_stage_product(self, fig1):
        stages = fig1_stage_matrices()
        total = fig1.stage_matrices[2] @ fig1.stage_matrices[1] @ fig1.stage_matrices[0]
        np.testing.assert_allclose(total, stages[2] @ stages[1] @ stages[0], atol=ATOL)

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_stage_matrices_are_one_read_only_stack(self, name, request):
        scenario = request.getfixturevalue(name)
        d = scenario.basis.dimension
        assert scenario.stage_matrices.shape == (len(scenario.stages), d, d)
        assert scenario.stage_matrices.dtype == np.complex128
        with pytest.raises(ValueError):
            scenario.stage_matrices[0, 0, 0] = 0.0

    def test_element_that_does_not_fit_basis_raises_at_construction(self, fig1):
        plate = Stage("plate", (ElementSpec("waveplate", ("B",), (np.pi / 4,)),))
        with pytest.raises(ValueError, match="polarization"):
            Scenario(
                basis=fig1.basis,
                stages=fig1.stages + (plate,),
                preselect=fig1.preselect,
                postselect=fig1.postselect,
            )

    def test_canonical_slots(self, fig1):
        assert fig1.canonical_slots() == (("D", 1), ("A", 2), ("B", 2), ("C", 2), ("E", 3))

    def test_canonical_slots_fallback_to_final_boundary(self):
        scenario = parse_scenario("modes A B\npreselect 1@A\npostselect 1@A\n")
        assert scenario.canonical_slots() == (("A", 0), ("B", 0))

    def test_basis_mismatch_rejected(self, fig1):
        other = BasisDescriptor(("X", "Y"))
        with pytest.raises(ValueError):
            Scenario(
                basis=fig1.basis,
                stages=fig1.stages,
                preselect=StateVector(other, basis_vector(other, "X")),
                postselect=fig1.postselect,
            )


class TestBoundaryStates:
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_shape_and_read_only(self, name, request):
        scenario = request.getfixturevalue(name)
        for rows in scenario.boundary_states:
            assert rows.shape == (scenario.n_boundaries, scenario.basis.dimension)
            assert rows.dtype == np.complex128
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0

    def test_built_once_per_scenario(self, fig1):
        assert fig1.boundary_states is fig1.boundary_states

    @pytest.mark.parametrize("boundary", [True, np.int64(2)])
    def test_bool_and_numpy_integer_boundary_match_int(self, fig1, boundary):
        for state in (forward_state, backward_state):
            np.testing.assert_array_equal(
                state(fig1, boundary).amplitudes, state(fig1, int(boundary)).amplitudes
            )

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_rows_equal_stagewise_apply_and_adjoint(self, name, request):
        scenario = request.getfixturevalue(name)
        stages = [Operator(scenario.basis, matrix) for matrix in scenario.stage_matrices]
        forward = [scenario.preselect]
        for stage in stages:
            forward.append(apply(stage, forward[-1]))
        backward = [scenario.postselect]
        for stage in reversed(stages):
            backward.insert(0, apply(adjoint(stage), backward[0]))
        fwd, bwd = scenario.boundary_states
        np.testing.assert_array_equal(fwd, [state.amplitudes for state in forward])
        np.testing.assert_array_equal(bwd, [state.amplitudes for state in backward])

import numpy as np
import pytest

from weaktrace.optics import (
    ElementSpec,
    arm_projector,
    beamsplitter,
    element_operator,
    mirror,
    phaseshifter,
    polarizer_projector,
    routed_beamsplitter,
    waveplate,
)
from weaktrace.qstate import ATOL, BasisDescriptor, StateVector, apply

from oracles import fig1_stage_matrices, fig2_stage_matrices

BASIS = BasisDescriptor(("S", "A", "B", "C", "D", "E", "F"))
POL_BASIS = BasisDescriptor(("S", "A", "B", "C", "D", "E", "F"), polarization_enabled=True)

SQ2 = np.sqrt(2.0)


class TestBeamsplitter:
    def test_zero_angle_is_identity(self):
        op = beamsplitter(BASIS, ("B", "C"), 0.0)
        np.testing.assert_allclose(op.matrix, np.eye(7), atol=ATOL)

    def test_half_pi_swaps_with_phase(self):
        op = beamsplitter(BASIS, ("B", "C"), np.pi / 2)
        psi = apply(op, StateVector.basis_state(BASIS, "B"))
        assert psi.amplitude("C") == pytest.approx(1j, abs=ATOL)
        assert abs(psi.amplitude("B")) <= ATOL

    def test_identical_arms_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter(BASIS, ("A", "A"), np.pi / 4)

    def test_inverse_angle(self):
        forward = beamsplitter(BASIS, ("B", "C"), 0.3)
        back = beamsplitter(BASIS, ("B", "C"), -0.3)
        np.testing.assert_allclose((back @ forward).matrix, np.eye(7), atol=ATOL)

    def test_fig_port_assignment(self):
        op = routed_beamsplitter(BASIS, ("S", "A"), ("D", "A"), np.pi / 4)
        psi = apply(op, StateVector.basis_state(BASIS, "S"))
        assert psi.amplitude("D") == pytest.approx(1 / SQ2, abs=ATOL)
        assert psi.amplitude("A") == pytest.approx(1j / SQ2, abs=ATOL)

    def test_routed_two_input_ports(self):
        op = routed_beamsplitter(BASIS, ("C", "B"), ("E", "F"), np.pi / 4)
        from_c = apply(op, StateVector.basis_state(BASIS, "C"))
        from_b = apply(op, StateVector.basis_state(BASIS, "B"))
        assert from_c.amplitude("E") == pytest.approx(1 / SQ2, abs=ATOL)
        assert from_c.amplitude("F") == pytest.approx(1j / SQ2, abs=ATOL)
        assert from_b.amplitude("E") == pytest.approx(1j / SQ2, abs=ATOL)
        assert from_b.amplitude("F") == pytest.approx(1 / SQ2, abs=ATOL)

    def test_routed_overlapping_routes_rejected(self):
        with pytest.raises(ValueError):
            routed_beamsplitter(BASIS, ("A", "B"), ("B", "A"), np.pi / 4)

    @pytest.mark.parametrize("basis", [BASIS, POL_BASIS], ids=["pol-off", "pol-on"])
    @pytest.mark.parametrize(
        "inputs, outputs, swaps",
        [
            (("B", "C"), ("B", "C"), []),
            (("S", "A"), ("D", "A"), [("S", "D")]),
            (("C", "B"), ("E", "F"), [("C", "E"), ("B", "F")]),
        ],
        ids=["2-arm", "3-arm", "4-arm"],
    )
    def test_routed_is_mixer_times_longhand_permutation(self, basis, inputs, outputs, swaps):
        """Routing is the in-place mixer on the outputs after a label permutation P."""
        dest = {arm: arm for arm in basis.path_modes}
        for a, b in swaps:
            dest[a], dest[b] = b, a
        p = basis.pol_dim
        perm = np.zeros((basis.dimension, basis.dimension))
        for src, arm in enumerate(basis.path_modes):
            for pol in range(p):
                perm[basis.path_modes.index(dest[arm]) * p + pol, src * p + pol] = 1.0
        expected = beamsplitter(basis, outputs, 0.3).matrix @ perm
        op = routed_beamsplitter(basis, inputs, outputs, 0.3)
        assert np.array_equal(op.matrix, expected)
        assert op.unitary

    @pytest.mark.parametrize(
        "name, oracle", [("fig1", fig1_stage_matrices), ("fig2", fig2_stage_matrices)]
    )
    def test_builtin_stage_columns_match_oracle(self, name, oracle, request):
        """Every column, the swap-back columns of vacated labels included."""
        scenario = request.getfixturevalue(name)
        for stage, expected in zip(scenario.stages, oracle(), strict=True):
            for j in range(scenario.basis.dimension):
                np.testing.assert_allclose(
                    stage.unitary.matrix[:, j],
                    expected[:, j],
                    atol=ATOL,
                    err_msg=f"{stage.label} column {j}",
                )

    def test_routed_preserves_polarization(self):
        op = routed_beamsplitter(POL_BASIS, ("S", "A"), ("D", "A"), np.pi / 4)
        psi = apply(op, StateVector.basis_state(POL_BASIS, "S", "V"))
        assert psi.amplitude("D", "V") == pytest.approx(1 / SQ2, abs=ATOL)
        assert abs(psi.amplitude("D", "H")) <= ATOL


class TestWaveplate:
    def test_plus_quarter_h_to_diag(self):
        op = waveplate(POL_BASIS, "B", np.pi / 4)
        psi = apply(op, StateVector.basis_state(POL_BASIS, "B", "H"))
        assert psi.amplitude("B", "H") == pytest.approx(1 / SQ2, abs=ATOL)
        assert psi.amplitude("B", "V") == pytest.approx(1 / SQ2, abs=ATOL)

    def test_minus_quarter_h_to_antidiag(self):
        op = waveplate(POL_BASIS, "C", -np.pi / 4)
        psi = apply(op, StateVector.basis_state(POL_BASIS, "C", "H"))
        assert psi.amplitude("C", "V") == pytest.approx(-1 / SQ2, abs=ATOL)

    def test_zero_angle_identity(self):
        np.testing.assert_allclose(waveplate(POL_BASIS, "B", 0.0).matrix, np.eye(14), atol=ATOL)

    def test_disjoint_arm_untouched(self):
        op = waveplate(POL_BASIS, "B", np.pi / 4)
        psi = apply(op, StateVector.basis_state(POL_BASIS, "C", "H"))
        assert psi.amplitude("C", "H") == 1.0

    def test_requires_polarization(self):
        with pytest.raises(ValueError):
            waveplate(BASIS, "B", np.pi / 4)

    def test_different_arms_commute(self):
        wp_b = waveplate(POL_BASIS, "B", 0.7)
        wp_c = waveplate(POL_BASIS, "C", -0.3)
        np.testing.assert_allclose((wp_b @ wp_c).matrix, (wp_c @ wp_b).matrix, atol=ATOL)

    def test_commutes_with_own_arm_projector(self):
        wp = waveplate(POL_BASIS, "B", 0.7)
        proj = arm_projector(POL_BASIS, "B")
        np.testing.assert_allclose((wp @ proj).matrix, (proj @ wp).matrix, atol=ATOL)


class TestPolarizer:
    def test_h_kills_v(self):
        op = polarizer_projector(POL_BASIS, "H")
        psi = apply(op, StateVector.basis_state(POL_BASIS, "E", "V"))
        assert psi.norm() <= ATOL

    def test_h_on_diagonal(self):
        op = polarizer_projector(POL_BASIS, "H")
        diag = StateVector.from_terms(POL_BASIS, {("E", "H"): 1 / SQ2, ("E", "V"): 1 / SQ2})
        out = apply(op, diag)
        assert out.amplitude("E", "H") == pytest.approx(1 / SQ2, abs=ATOL)
        assert abs(out.amplitude("E", "V")) <= ATOL

    def test_idempotent_and_flagged(self):
        op = polarizer_projector(POL_BASIS, "H")
        assert op.projector and not op.unitary
        np.testing.assert_allclose((op @ op).matrix, op.matrix, atol=ATOL)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            polarizer_projector(POL_BASIS, "circular")

    def test_requires_polarization(self):
        with pytest.raises(ValueError):
            polarizer_projector(BASIS, "H")


class TestArmProjector:
    def test_projects_basis_component(self):
        psi = StateVector.from_terms(BASIS, {"D": 1 / SQ2, "A": 1j / SQ2})
        out = apply(arm_projector(BASIS, "A"), psi)
        assert out.amplitude("A") == pytest.approx(1j / SQ2, abs=ATOL)
        assert out.arm_norm("D") <= ATOL

    def test_resolution_of_identity(self):
        total = sum(arm_projector(POL_BASIS, arm).matrix for arm in POL_BASIS.path_modes)
        np.testing.assert_array_equal(total, np.eye(14))

    def test_unknown_arm(self):
        with pytest.raises(ValueError):
            arm_projector(BASIS, "Z")


class TestPhaseshifterAndMirror:
    def test_zero_phase_identity(self):
        np.testing.assert_allclose(phaseshifter(BASIS, "A", 0.0).matrix, np.eye(7), atol=ATOL)

    def test_pi_flips_sign(self):
        psi = apply(phaseshifter(BASIS, "A", np.pi), StateVector.basis_state(BASIS, "A"))
        assert psi.amplitude("A") == pytest.approx(-1.0, abs=ATOL)

    def test_phases_add(self):
        one = phaseshifter(BASIS, "A", 0.4) @ phaseshifter(BASIS, "A", 0.6)
        np.testing.assert_allclose(one.matrix, phaseshifter(BASIS, "A", 1.0).matrix, atol=ATOL)

    def test_mirror_is_quarter_turn_phase(self):
        psi = apply(mirror(BASIS, "A"), StateVector.basis_state(BASIS, "A"))
        assert psi.amplitude("A") == pytest.approx(1j, abs=ATOL)


class TestElementSpec:
    def test_every_element_except_polarizer_unitary(self):
        specs = [
            ElementSpec("beamsplitter", ("S", "A", "D", "A"), (np.pi / 4,)),
            ElementSpec("beamsplitter", ("C", "B", "E", "F"), (0.3,)),
            ElementSpec("waveplate", ("B",), (0.5,)),
            ElementSpec("phaseshifter", ("A",), (1.1,)),
            ElementSpec("mirror", ("D",)),
        ]
        for spec in specs:
            op = element_operator(spec, POL_BASIS)
            np.testing.assert_allclose(
                (op.matrix.conj().T @ op.matrix), np.eye(14), atol=ATOL
            )

    def test_unknown_kind_rejected(self):
        for kind, operands, parameters in (("teleporter", ("A",), ()), ("polarizer", (), ("H",))):
            with pytest.raises(ValueError):
                ElementSpec(kind, operands, parameters)

    def test_identical_beamsplitter_operands_rejected(self):
        with pytest.raises(ValueError):
            ElementSpec("beamsplitter", ("A", "A", "A", "A"), (np.pi / 4,))

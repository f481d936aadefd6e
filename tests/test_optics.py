import numpy as np
import pytest

from weaktrace.optics import (
    ElementSpec,
    apply_element,
    arm_projector,
    check_element,
    element_operator,
)
from weaktrace.qstate import ATOL, BasisDescriptor, UnknownLabelError, is_unitary_matrix

from oracles import basis_vector, element_matrix, fig1_stage_matrices, fig2_stage_matrices

BASIS = BasisDescriptor(("S", "A", "B", "C", "D", "E", "F"))
POL_BASIS = BasisDescriptor(("S", "A", "B", "C", "D", "E", "F"), polarization_enabled=True)

SQ2 = np.sqrt(2.0)


class TestBeamsplitter:
    def test_zero_angle_is_identity(self):
        op = element_operator(ElementSpec("beamsplitter", ("B", "C", "B", "C"), (0.0,)), BASIS)
        np.testing.assert_allclose(op.matrix, np.eye(7), atol=ATOL)

    def test_half_pi_swaps_with_phase(self):
        spec = ElementSpec("beamsplitter", ("B", "C", "B", "C"), (np.pi / 2,))
        op = element_operator(spec, BASIS)
        psi = op.matrix @ basis_vector(BASIS, "B")
        assert psi[BASIS.index("C")] == pytest.approx(1j, abs=ATOL)
        assert abs(psi[BASIS.index("B")]) <= ATOL

    def test_identical_arms_rejected(self):
        with pytest.raises(ValueError):
            ElementSpec("beamsplitter", ("A", "A", "A", "A"), (np.pi / 4,))

    def test_inverse_angle(self):
        forward = element_operator(ElementSpec("beamsplitter", ("B", "C", "B", "C"), (0.3,)), BASIS)
        back = element_operator(ElementSpec("beamsplitter", ("B", "C", "B", "C"), (-0.3,)), BASIS)
        np.testing.assert_allclose(back.matrix @ forward.matrix, np.eye(7), atol=ATOL)

    def test_fig_port_assignment(self):
        spec = ElementSpec("beamsplitter", ("S", "A", "D", "A"), (np.pi / 4,))
        op = element_operator(spec, BASIS)
        psi = op.matrix @ basis_vector(BASIS, "S")
        assert psi[BASIS.index("D")] == pytest.approx(1 / SQ2, abs=ATOL)
        assert psi[BASIS.index("A")] == pytest.approx(1j / SQ2, abs=ATOL)

    def test_routed_two_input_ports(self):
        spec = ElementSpec("beamsplitter", ("C", "B", "E", "F"), (np.pi / 4,))
        op = element_operator(spec, BASIS)
        e, f = BASIS.index("E"), BASIS.index("F")
        from_c = op.matrix @ basis_vector(BASIS, "C")
        from_b = op.matrix @ basis_vector(BASIS, "B")
        assert from_c[e] == pytest.approx(1 / SQ2, abs=ATOL)
        assert from_c[f] == pytest.approx(1j / SQ2, abs=ATOL)
        assert from_b[e] == pytest.approx(1j / SQ2, abs=ATOL)
        assert from_b[f] == pytest.approx(1 / SQ2, abs=ATOL)

    def test_routed_overlapping_routes_rejected(self):
        with pytest.raises(ValueError, match="not a disjoint relabeling"):
            ElementSpec("beamsplitter", ("A", "B", "B", "A"), (np.pi / 4,))

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
        mixer = ElementSpec("beamsplitter", (*outputs, *outputs), (0.3,))
        expected = element_operator(mixer, basis).matrix @ perm
        op = element_operator(ElementSpec("beamsplitter", (*inputs, *outputs), (0.3,)), basis)
        assert np.array_equal(op.matrix, expected)
        assert is_unitary_matrix(op.matrix)

    @pytest.mark.parametrize(
        "name, oracle", [("fig1", fig1_stage_matrices), ("fig2", fig2_stage_matrices)]
    )
    def test_builtin_stage_columns_match_oracle(self, name, oracle, request):
        """Every column, the swap-back columns of vacated labels included."""
        scenario = request.getfixturevalue(name)
        stacks = zip(scenario.stages, scenario.stage_matrices, oracle(), strict=True)
        for stage, matrix, expected in stacks:
            for j in range(scenario.basis.dimension):
                np.testing.assert_allclose(
                    matrix[:, j],
                    expected[:, j],
                    atol=ATOL,
                    err_msg=f"{stage.label} column {j}",
                )

    def test_routed_preserves_polarization(self):
        spec = ElementSpec("beamsplitter", ("S", "A", "D", "A"), (np.pi / 4,))
        op = element_operator(spec, POL_BASIS)
        psi = op.matrix @ basis_vector(POL_BASIS, "S", "V")
        assert psi[POL_BASIS.index("D", "V")] == pytest.approx(1 / SQ2, abs=ATOL)
        assert abs(psi[POL_BASIS.index("D", "H")]) <= ATOL


class TestWaveplate:
    def test_plus_quarter_h_to_diag(self):
        op = element_operator(ElementSpec("waveplate", ("B",), (np.pi / 4,)), POL_BASIS)
        psi = op.matrix @ basis_vector(POL_BASIS, "B", "H")
        assert psi[POL_BASIS.index("B", "H")] == pytest.approx(1 / SQ2, abs=ATOL)
        assert psi[POL_BASIS.index("B", "V")] == pytest.approx(1 / SQ2, abs=ATOL)

    def test_minus_quarter_h_to_antidiag(self):
        op = element_operator(ElementSpec("waveplate", ("C",), (-np.pi / 4,)), POL_BASIS)
        psi = op.matrix @ basis_vector(POL_BASIS, "C", "H")
        assert psi[POL_BASIS.index("C", "V")] == pytest.approx(-1 / SQ2, abs=ATOL)

    def test_zero_angle_identity(self):
        op = element_operator(ElementSpec("waveplate", ("B",), (0.0,)), POL_BASIS)
        np.testing.assert_allclose(op.matrix, np.eye(14), atol=ATOL)

    def test_disjoint_arm_untouched(self):
        op = element_operator(ElementSpec("waveplate", ("B",), (np.pi / 4,)), POL_BASIS)
        psi = op.matrix @ basis_vector(POL_BASIS, "C", "H")
        assert psi[POL_BASIS.index("C", "H")] == 1.0

    def test_requires_polarization(self):
        with pytest.raises(ValueError, match="polarization"):
            element_operator(ElementSpec("waveplate", ("B",), (np.pi / 4,)), BASIS)

    def test_different_arms_commute(self):
        wp_b = element_operator(ElementSpec("waveplate", ("B",), (0.7,)), POL_BASIS)
        wp_c = element_operator(ElementSpec("waveplate", ("C",), (-0.3,)), POL_BASIS)
        np.testing.assert_allclose(wp_b.matrix @ wp_c.matrix, wp_c.matrix @ wp_b.matrix, atol=ATOL)

    def test_commutes_with_own_arm_projector(self):
        wp = element_operator(ElementSpec("waveplate", ("B",), (0.7,)), POL_BASIS)
        proj = arm_projector(POL_BASIS, "B")
        np.testing.assert_allclose(wp.matrix @ proj.matrix, proj.matrix @ wp.matrix, atol=ATOL)


class TestArmProjector:
    def test_projects_basis_component(self):
        psi = (basis_vector(BASIS, "D") + 1j * basis_vector(BASIS, "A")) / SQ2
        out = arm_projector(BASIS, "A").matrix @ psi
        assert out[BASIS.index("A")] == pytest.approx(1j / SQ2, abs=ATOL)
        assert abs(out[BASIS.index("D")]) <= ATOL

    def test_resolution_of_identity(self):
        total = sum(arm_projector(POL_BASIS, arm).matrix for arm in POL_BASIS.path_modes)
        np.testing.assert_array_equal(total, np.eye(14))

    def test_unknown_arm(self):
        with pytest.raises(ValueError):
            arm_projector(BASIS, "Z")


class TestPhaseshifterAndMirror:
    def test_zero_phase_identity(self):
        op = element_operator(ElementSpec("phaseshifter", ("A",), (0.0,)), BASIS)
        np.testing.assert_allclose(op.matrix, np.eye(7), atol=ATOL)

    def test_pi_flips_sign(self):
        op = element_operator(ElementSpec("phaseshifter", ("A",), (np.pi,)), BASIS)
        psi = op.matrix @ basis_vector(BASIS, "A")
        assert psi[BASIS.index("A")] == pytest.approx(-1.0, abs=ATOL)

    def test_phases_add(self):
        def shift(phase):
            return element_operator(ElementSpec("phaseshifter", ("A",), (phase,)), BASIS)

        np.testing.assert_allclose(
            shift(0.4).matrix @ shift(0.6).matrix, shift(1.0).matrix, atol=ATOL
        )

    def test_mirror_is_quarter_turn_phase(self):
        op = element_operator(ElementSpec("mirror", ("A",)), BASIS)
        psi = op.matrix @ basis_vector(BASIS, "A")
        assert psi[BASIS.index("A")] == pytest.approx(1j, abs=ATOL)


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

    @pytest.mark.parametrize(
        "kind, operands, parameters",
        [
            ("beamsplitter", ("B", "C", "B", "C"), ()),
            ("waveplate", ("B",), ()),
            ("phaseshifter", ("A",), ()),
            ("phaseshifter", ("A",), (0.1, 0.2)),
            ("mirror", ("D",), (0.1,)),
            ("phaseshifter", ("A",), (float("nan"),)),
            ("beamsplitter", ("B", "C", "B", "C"), (np.inf,)),
            ("waveplate", ("B",), (-np.inf,)),
            ("phaseshifter", ("A",), (0.1j,)),
            ("phaseshifter", ("A",), ("pi/4",)),
        ],
        ids=[
            "bs-no-angle", "waveplate-no-angle", "phaseshifter-no-angle", "two-angles",
            "mirror-with-angle", "nan", "inf", "minus-inf", "complex", "string",
        ],
    )
    def test_parameters_are_one_finite_real_angle(self, kind, operands, parameters):
        with pytest.raises(ValueError, match="finite real angle"):
            ElementSpec(kind, operands, parameters)


_ROW_SPECS = {
    "bs-2-arm": ElementSpec("beamsplitter", ("B", "C", "B", "C"), (0.3,)),
    "bs-3-arm": ElementSpec("beamsplitter", ("S", "A", "D", "A"), (np.pi / 4,)),
    "bs-4-arm": ElementSpec("beamsplitter", ("C", "B", "E", "F"), (-1.1,)),
    "waveplate": ElementSpec("waveplate", ("B",), (0.7,)),
    "phaseshifter": ElementSpec("phaseshifter", ("A",), (1.3,)),
    "mirror": ElementSpec("mirror", ("D",)),
}
_ROW_CASES = [
    pytest.param(basis, spec, id=f"{name}-pol-{'on' if basis.polarization_enabled else 'off'}")
    for basis in (BASIS, POL_BASIS)
    for name, spec in _ROW_SPECS.items()
    if basis.polarization_enabled or spec.kind != "waveplate"
]


def _random_block(basis):
    rng = np.random.default_rng(5)
    shape = (basis.dimension, 3)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestApplyElement:
    @pytest.mark.parametrize("basis, spec", _ROW_CASES)
    def test_rows_match_operator_product(self, basis, spec):
        """Against the longhand matrix of ``oracles.element_matrix``, not ``element_operator``."""
        matrix = element_matrix(
            basis.path_modes, basis.polarization_enabled, spec.kind, spec.operands, spec.parameters
        )
        block = _random_block(basis)
        expected = matrix @ block
        apply_element(spec, basis, block)
        np.testing.assert_allclose(block, expected, rtol=0, atol=ATOL)
        np.testing.assert_allclose(element_operator(spec, basis).matrix, matrix, rtol=0, atol=ATOL)

    @pytest.mark.parametrize(
        "kind, operands, error",
        [
            ("phaseshifter", ("Z",), UnknownLabelError),
            ("beamsplitter", ("A", "B", "C", "Z"), UnknownLabelError),
            ("beamsplitter", ("A", "B", "B", "A"), ValueError),
            ("waveplate", ("B",), ValueError),
            ("waveplate", ("Z",), UnknownLabelError),
        ],
        ids=[
            "unknown-arm", "unknown-output", "overlapping-routing", "waveplate-no-pol",
            "waveplate-unknown-arm-no-pol",
        ],
    )
    def test_rejected_spec_leaves_rows_untouched(self, kind, operands, error):
        """The spec is built inside each check: an overlapping routing already
        fails at ElementSpec, the arm lookups at apply_element, and the
        polarization rule at check_element, after the arms."""
        if kind == "waveplate" and error is ValueError:
            with pytest.raises(error):
                check_element(ElementSpec(kind, operands, (0.1,)), BASIS)
        block = _random_block(BASIS)
        before = block.tobytes()
        with pytest.raises(error):
            apply_element(ElementSpec(kind, operands, (0.1,)), BASIS, block)
        assert block.tobytes() == before

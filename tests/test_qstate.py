import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktrace.optics import ElementSpec, element_operator
from weaktrace.qstate import (
    ATOL,
    BasisDescriptor,
    DimensionError,
    Operator,
    StateVector,
    UnknownLabelError,
    adjoint,
    apply,
    inner,
    is_unitary_matrix,
)

from oracles import basis_vector

BASIS = BasisDescriptor(("A", "B", "C", "D"))
POL_BASIS = BasisDescriptor(("A", "B", "C"), polarization_enabled=True)

SQ2 = np.sqrt(2.0)


def ket(arm, pol=None, basis=BASIS):
    return StateVector(basis, basis_vector(basis, arm, pol))


class TestBasisDescriptor:
    def test_dimension(self):
        assert BASIS.dimension == 4
        assert POL_BASIS.dimension == 6

    def test_index_order_is_arm_major(self):
        assert [POL_BASIS.index(a, p) for a in ("A", "B") for p in ("H", "V")] == [0, 1, 2, 3]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            BasisDescriptor(("A", "A"))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            BasisDescriptor(("A", ""))

    def test_unknown_arm(self):
        with pytest.raises(UnknownLabelError):
            BASIS.index("Z")

    def test_pol_required_when_enabled(self):
        with pytest.raises(ValueError):
            POL_BASIS.index("A")

    @pytest.mark.parametrize("basis", [BASIS, POL_BASIS], ids=["plain", "pol"])
    def test_arm_slice_covers_its_labels(self, basis):
        for arm in basis.path_modes:
            rows = basis.arm_indices(arm)
            assert isinstance(rows, slice)
            labels = [basis.index(a, pol) for a, pol in basis.labels() if a == arm]
            assert list(range(basis.dimension))[rows] == labels
        for lookup in (basis.arm_indices, basis.index):
            with pytest.raises(UnknownLabelError):
                lookup("Z")


class TestStateVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            StateVector(BASIS, np.ones(3))

    def test_non_finite_rejected(self):
        """Either part of an entry can be the non-finite one."""
        for bad in (np.nan, complex(0, np.inf), complex(-np.inf, 1)):
            with pytest.raises(ValueError):
                StateVector(BASIS, [bad, 0, 0, 0])

    def test_unnormalized_allowed_and_flagged(self):
        assert StateVector(BASIS, [2.0, 0, 0, 0]).norm() == 2.0

    def test_amplitudes_immutable(self):
        state = ket("A")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0

    def test_arm_block(self):
        amps = 0.6 * basis_vector(POL_BASIS, "B", "H") + 0.8j * basis_vector(POL_BASIS, "B", "V")
        block = StateVector(POL_BASIS, amps).amplitudes[POL_BASIS.arm_indices("B")]
        np.testing.assert_allclose(block, [0.6, 0.8j])
        assert np.linalg.norm(block) == pytest.approx(1.0)


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(ket("A"), ket("A")) == 1.0
        assert inner(ket("A"), ket("B")) == 0.0

    def test_conjugate_linear_in_bra(self):
        bra = StateVector(BASIS, [1j, 0, 0, 0])
        assert inner(bra, ket("A")) == pytest.approx(-1j)

    def test_basis_mismatch(self):
        with pytest.raises(DimensionError):
            inner(ket("A"), ket("A", "H", POL_BASIS))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        psi = StateVector(BASIS, rng.normal(size=4) + 1j * rng.normal(size=4))
        phi = StateVector(BASIS, rng.normal(size=4) + 1j * rng.normal(size=4))
        assert inner(psi, phi) == pytest.approx(np.conj(inner(phi, psi)), abs=ATOL)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestApplyAdjoint:
    def test_identity(self):
        psi = StateVector(BASIS, [0.5, 0.5, 0.5, 0.5])
        one = Operator(BASIS, np.eye(4))
        np.testing.assert_array_equal(apply(one, psi).amplitudes, psi.amplitudes)

    def test_projector_on_basis_ket(self):
        proj = Operator(BASIS, np.diag([1.0, 0.0, 0.0, 0.0]))
        psi = StateVector(BASIS, [1j / SQ2, 0, 0, 1 / SQ2])
        out = apply(proj, psi)
        np.testing.assert_allclose(out.amplitudes, [1j / SQ2, 0, 0, 0], atol=ATOL)

    def test_adjoint_identity(self):
        np.testing.assert_array_equal(adjoint(Operator(BASIS, np.eye(4))).matrix, np.eye(4))

    def test_adjoint_conjugate_transpose(self):
        spec = ElementSpec("beamsplitter", ("A", "B", "A", "B"), (np.pi / 4,))
        op = element_operator(spec, BASIS)
        np.testing.assert_array_equal(adjoint(op).matrix, op.matrix.conj().T)

    def test_adjoint_involutive_exactly(self):
        rng = np.random.default_rng(7)
        op = Operator(BASIS, random_unitary(rng, 4))
        np.testing.assert_array_equal(adjoint(adjoint(op)).matrix, op.matrix)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_unitaries_preserve_norm(self, seed):
        rng = np.random.default_rng(seed)
        op = Operator(BASIS, random_unitary(rng, 4))
        psi = StateVector(BASIS, rng.normal(size=4) + 1j * rng.normal(size=4))
        assert apply(op, psi).norm() == pytest.approx(psi.norm(), abs=ATOL)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_times_op_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        op = Operator(BASIS, random_unitary(rng, 4))
        np.testing.assert_allclose(adjoint(op).matrix @ op.matrix, np.eye(4), atol=ATOL)


class TestOperatorFlags:
    def test_unitary_flag_validated(self):
        assert not is_unitary_matrix(Operator(BASIS, np.diag([1.0, 2.0, 1.0, 1.0])).matrix)


class TestEmbed:
    """Local element actions lifted onto the full composite basis."""

    def test_polarization_rotation_trivial_off_target(self):
        op = element_operator(ElementSpec("waveplate", ("B",), (np.pi / 2,)), POL_BASIS)
        psi = ket("C", "H", POL_BASIS)
        np.testing.assert_array_equal(apply(op, psi).amplitudes, psi.amplitudes)
        flipped = apply(op, ket("B", "H", POL_BASIS))
        assert flipped.amplitudes[POL_BASIS.index("B", "V")] == 1.0

    def test_disjoint_support_commutes(self):
        spec = ElementSpec("beamsplitter", ("B", "C", "B", "C"), (np.pi / 4,))
        bs = element_operator(spec, BASIS)
        proj_a = Operator(BASIS, np.diag([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(bs.matrix @ proj_a.matrix, proj_a.matrix @ bs.matrix, atol=ATOL)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            element_operator(ElementSpec("beamsplitter", ("A", "Z", "A", "Z"), (np.pi / 4,)), BASIS)

    def test_pol_embed_requires_polarization(self):
        with pytest.raises(ValueError, match="polarization"):
            element_operator(ElementSpec("waveplate", ("A",), (np.pi / 4,)), BASIS)

    def test_projectors_resolve_identity(self):
        total = np.zeros((6, 6), dtype=complex)
        for arm in POL_BASIS.path_modes:
            diag = np.zeros(6)
            diag[POL_BASIS.arm_indices(arm)] = 1.0
            total += np.diag(diag)
        np.testing.assert_array_equal(total, np.eye(6))

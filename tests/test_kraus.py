import numpy as np
import pytest

from qfilter import (
    DensityOperator,
    ErrorModel,
    FilterState,
    KrausFamily,
    MeasurementStep,
    apply_jump,
    outcome_probabilities,
)
from qfilter.errors import (
    CompletenessViolationError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    ValidationError,
    ZeroProbabilityJumpError,
)
from qfilter.kraus import weighted_image
from qfilter.photonbox import PhotonBoxParams, composite_kraus
from qfilter.stability import random_density_operator, random_kraus_family


def identity_family(d=2):
    return KrausFamily([np.eye(d, dtype=complex)], completeness_tolerance=1e-12)


def jump_probabilities(family, rho):
    """Jump probabilities: the outcome distribution under a perfect detector."""
    step = MeasurementStep(family, ErrorModel.identity(family.count))
    return outcome_probabilities(FilterState(estimate=rho), step)


def completeness_deficit(family):
    """Max-norm of sum_q M_q^dag M_q - I."""
    gram = np.einsum("qki,qkj->ij", family.operators.conj(), family.operators)
    return float(np.abs(gram - np.eye(family.dim)).max())


def kraus_map(family, rho):
    """Unconditional evolution sum_q M_q rho M_q^dag, trace-renormalized."""
    total = weighted_image(family, np.ones(family.count), rho.matrix)
    return total / np.trace(total).real


class TestKrausFamily:
    def test_completeness_enforced(self):
        with pytest.raises(CompletenessViolationError) as err:
            KrausFamily([0.5 * np.eye(2)], completeness_tolerance=1e-9)
        assert err.value.deviation == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9])
    def test_bad_completeness_tolerance_rejected(self, tolerance):
        # a NaN tolerance used to accept this incomplete family
        with pytest.raises(ValidationError, match="completeness_tolerance"):
            KrausFamily(
                [0.5 * np.eye(2), 0.5 * np.eye(2)], completeness_tolerance=tolerance
            )

    def test_missing_completeness_tolerance_rejected(self):
        # only KrausFamily._factored measures a tolerance it is not given
        with pytest.raises(TypeError):
            KrausFamily(
                [0.5 * np.eye(2), 0.5 * np.eye(2)], completeness_tolerance=None
            )

    def test_labels_length_checked(self):
        with pytest.raises(Exception):
            KrausFamily([np.eye(2)], labels=["a", "b"])

    def test_deficit_measured(self, projective_family):
        assert completeness_deficit(projective_family) < 1e-15

    def test_random_families_exactly_complete(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            family = random_kraus_family(rng, d, m)
            assert completeness_deficit(family) < 1e-13

    def test_real_family_hands_out_complex_operators(self):
        # Guards the boundary: a real family stores real factors, but its
        # dense operators stay complex128.
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        for family in (
            KrausFamily(ops, completeness_tolerance=1e-12),
            composite_kraus(PhotonBoxParams(), 0.3),
        ):
            assert family._flat.dtype == np.float64
            assert family.operators.dtype == np.complex128
        assert np.array_equal(family.operators.imag, np.zeros((21, 11, 11)))


class TestJumpProbabilities:
    def test_single_identity(self, rng):
        rho = random_density_operator(rng, 2)
        assert jump_probabilities(identity_family(), rho) == pytest.approx([1.0])

    def test_projective_diagonal(self, projective_family):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        probs = jump_probabilities(projective_family, rho)
        assert probs == pytest.approx([0.3, 0.7], abs=1e-14)

    def test_photonbox_vacuum_term_by_term(self):
        # independent oracle: evaluate each trace directly
        params = PhotonBoxParams()
        family = composite_kraus(params, 0.0)
        vacuum = DensityOperator.basis_state(params.dim, 0)
        expected = np.array(
            [
                float(np.trace(m @ vacuum.matrix @ m.conj().T).real)
                for m in family.operators
            ]
        )
        expected = expected / expected.sum()
        probs = jump_probabilities(family, vacuum)
        assert np.abs(probs - expected).max() < 1e-14

    def test_sums_to_one(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            family = random_kraus_family(rng, d, int(rng.integers(1, 5)))
            rho = random_density_operator(rng, d)
            assert jump_probabilities(family, rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, projective_family):
        with pytest.raises(DimensionMismatchError):
            jump_probabilities(projective_family, DensityOperator.maximally_mixed(3))


class TestApplyJump:
    def test_identity_keeps_state(self, rng):
        rho = random_density_operator(rng, 2)
        out = apply_jump(identity_family(), 0, rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_projection_collapses(self, projective_family):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        out = apply_jump(projective_family, 0, rho)
        assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-14

    def test_zero_probability_jump(self, projective_family):
        vac = DensityOperator.basis_state(2, 0)
        with pytest.raises(ZeroProbabilityJumpError):
            apply_jump(projective_family, 1, vac)

    def test_index_range(self, projective_family, mixed_qubit):
        with pytest.raises(IndexOutOfRangeError):
            apply_jump(projective_family, 2, mixed_qubit)

    def test_output_validates(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            family = random_kraus_family(rng, d, 3)
            rho = random_density_operator(rng, d)
            probs = jump_probabilities(family, rho)
            q = int(np.argmax(probs))
            out = apply_jump(family, q, rho)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-12


class TestKrausMap:
    def test_identity(self, rng):
        rho = random_density_operator(rng, 2)
        out = kraus_map(identity_family(), rho)
        assert np.abs(out - rho.matrix).max() < 1e-14

    def test_projective_dephasing(self, projective_family):
        rho = DensityOperator([[0.5, 0.5], [0.5, 0.5]])
        out = kraus_map(projective_family, rho)
        assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-14

    def test_mixture_identity(self, rng):
        # map equals the probability-weighted average of conditional updates
        for _ in range(10):
            d = int(rng.integers(2, 5))
            family = random_kraus_family(rng, d, 3)
            rho = random_density_operator(rng, d)
            probs = jump_probabilities(family, rho)
            if probs.min() < 1e-6:
                continue
            mixture = sum(
                p * apply_jump(family, q, rho).matrix for q, p in enumerate(probs)
            )
            assert np.abs(kraus_map(family, rho) - mixture).max() < 1e-10

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilter import (
    DensityOperator,
    ErrorModel,
    FilterState,
    KrausFamily,
    MeasurementStep,
    apply_jump,
    filter_update,
    outcome_probabilities,
    run_filter,
)
from qfilter.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    RegularizationWarning,
    ZeroEvidenceError,
)
from qfilter.density import DEFAULT_TOLERANCES
from qfilter import kraus, photonbox
from qfilter.kraus import _workspace, raw_jump_probabilities, weighted_image
from qfilter.simulate import _update_filters
from qfilter.photonbox import PhotonBoxParams, composite_kraus, detection_error_model
from qfilter.verify import (
    random_density_operator,
    random_error_model,
    random_measurement_step,
)


def random_factored_family(rng, d, j, k):
    """M_(j*K + k) = B_k diag(a_j), sum_j |a_j|^2 = 1 and sum_k B_k^dag B_k = I."""
    a = rng.standard_normal((j, d)) + 1j * rng.standard_normal((j, d))
    a /= np.sqrt((np.abs(a) ** 2).sum(axis=0))
    g = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
    b, _ = np.linalg.qr(g)
    return KrausFamily._factored(a, b.reshape(k, d, d), 1e-12)


def dense_update(family, eta_row, rho):
    """sum_q eta[p, q] M_q rho M_q^dag / tr(...) over the dense stack."""
    num = sum(w * m @ rho @ m.conj().T for w, m in zip(eta_row, family.operators))
    return num / np.trace(num).real


def block_update(step, states, p):
    """Filter updates of a stack (N, d, d) by readings p through the block engine."""
    out = np.empty((1,) + states.shape, dtype=complex)
    work = _workspace(step._factors[0], len(states))
    regularized = _update_filters(step, states[None], p, DEFAULT_TOLERANCES, out, work)
    return out[0], regularized


class TestCoarseKraus:
    # The update numerator for reading p is the coarse-grained map
    # sum_q eta[p, q] M_q rho M_q^dag, i.e. weighted_image with row p of eta.

    def test_identity_error_model_isolates_one_operator(self, projective_family):
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        image = weighted_image(step.family, step.errors.eta[0], rho)
        m0 = projective_family.operators[0]
        assert np.abs(image - m0 @ rho @ m0.conj().T).max() < 1e-15

    def test_uniform_error_model_scales(self, projective_family):
        step = MeasurementStep(
            projective_family, ErrorModel(np.full((2, 2), 0.5))
        )
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        image = weighted_image(step.family, step.errors.eta[1], rho)
        expected = sum(0.5 * m @ rho @ m.conj().T for m in projective_family.operators)
        assert np.abs(image - expected).max() < 1e-15

    def test_photonbox_no_detection_column_scaling(self):
        params = PhotonBoxParams()
        step = MeasurementStep(
            composite_kraus(params, 0.0), detection_error_model(params)
        )
        eta_row = step.errors.eta[0]  # detector reading "no"
        for idx, label in enumerate(step.family.labels):
            if label.startswith("(no,"):
                # empty sample is always "detected" as nothing: weight 1
                assert eta_row[idx] == 1.0
            elif label.startswith("(g,"):
                scale = 1.0 - params.detection_efficiency
                assert eta_row[idx] == pytest.approx(scale, abs=1e-15)
        rho = DensityOperator.basis_state(params.dim, 1).matrix
        expected = sum(
            w * m @ rho @ m.conj().T for w, m in zip(eta_row, step.family.operators)
        )
        image = weighted_image(step.family, eta_row, rho)
        assert np.abs(image - expected).max() < 1e-14

    def test_partition_preserves_total(self, rng):
        step = random_measurement_step(rng, 3, m_ideal=3, m_real=4)
        rho = random_density_operator(rng, 3).matrix
        total = sum(
            weighted_image(step.family, step.errors.eta[p], rho)
            for p in range(step.m_real)
        )
        direct = weighted_image(step.family, np.ones(step.m_ideal), rho)
        assert np.abs(total - direct).max() < 1e-12
        assert np.trace(total).real == pytest.approx(1.0, abs=1e-12)

    def test_index_checked(self, two_level_step, mixed_qubit):
        with pytest.raises(IndexOutOfRangeError):
            filter_update(FilterState(estimate=mixed_qubit), two_level_step, 2)


class TestFilterUpdate:
    def test_ideal_detector_reduces_to_jump(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            step = random_measurement_step(rng, d, m, m)
            ideal = MeasurementStep(step.family, ErrorModel.identity(m))
            rho = random_density_operator(rng, d)
            q = int(np.argmax(np.abs(step.family.operators[..., 0, 0])) % m)
            updated = filter_update(FilterState(estimate=rho), ideal, q)
            jumped = apply_jump(step.family, q, rho)
            assert np.abs(updated.estimate.matrix - jumped.matrix).max() <= 1e-12

    def test_two_level_closed_form(self, two_level_step, mixed_qubit):
        # eta = [[0.9, 0.1], [0.1, 0.9]]: numerator diag(0.45, 0.05)
        state = filter_update(FilterState(estimate=mixed_qubit), two_level_step, 0)
        assert np.abs(state.estimate.matrix - np.diag([0.9, 0.1])).max() < 1e-14
        assert not state.regularized

    def test_full_rank_never_regularizes(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 5))
            step = random_measurement_step(rng, d, 3, 3)
            rho = random_density_operator(rng, d)  # full rank a.s.
            for p in range(step.m_real):
                assert not filter_update(FilterState(estimate=rho), step, p).regularized

    def test_degenerate_denominator_regularizes(self, projective_family):
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        dead_state = DensityOperator.basis_state(2, 0)
        updated = filter_update(FilterState(estimate=dead_state), step, 1)
        assert updated.regularized
        # the stabilized limit of projecting (rho + eps I)/tr onto |1><1|
        assert np.abs(updated.estimate.matrix - np.diag([0.0, 1.0])).max() < 1e-12

    def test_structurally_impossible_outcome(self, projective_family, mixed_qubit):
        # a valid left-stochastic matrix may still have an all-zero row:
        # that reading can never occur, from any state
        errors = ErrorModel([[1.0, 1.0], [0.0, 0.0]])
        step = MeasurementStep(projective_family, errors)
        with pytest.raises(ZeroEvidenceError):
            filter_update(FilterState(estimate=mixed_qubit), step, 1)

    def test_denominator_matches_predicted_probability(self, rng):
        # exact-completeness families: the update's denominator, the trace
        # of its numerator, equals the renormalized predicted component
        for _ in range(20):
            d = int(rng.integers(2, 5))
            step = random_measurement_step(rng, d, 3, 4)
            rho = random_density_operator(rng, d)
            predicted = outcome_probabilities(FilterState(estimate=rho), step)
            p = int(rng.integers(step.m_real))
            numerator = weighted_image(step.family, step.errors.eta[p], rho.matrix)
            assert np.trace(numerator).real == pytest.approx(predicted[p], abs=1e-12)


class TestOutcomeProbabilities:
    def test_identity_error_model_equals_jump_probs(self, projective_family):
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho = DensityOperator(np.diag([0.25, 0.75]))
        out = outcome_probabilities(FilterState(estimate=rho), step)
        traces = [
            np.trace(m @ rho.matrix @ m.conj().T).real
            for m in projective_family.operators
        ]
        assert np.abs(out - traces).max() < 1e-14

    def test_row_sum_identity(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            step = random_measurement_step(rng, d, 3, 5)
            rho = random_density_operator(rng, d)
            out = outcome_probabilities(FilterState(estimate=rho), step)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_level_balanced(self, two_level_step, mixed_qubit):
        out = outcome_probabilities(FilterState(estimate=mixed_qubit), two_level_step)
        assert out == pytest.approx([0.5, 0.5], abs=1e-14)


class TestRunFilter:
    def test_empty_outcomes_returns_initial(self, mixed_qubit):
        states = run_filter(mixed_qubit, [], [])
        assert len(states) == 1
        assert states[0].estimate is mixed_qubit

    def test_matches_oracle_on_random_instance(self, rng):
        from qfilter import direct_estimate

        d, k = 3, 3
        steps = [random_measurement_step(rng, d, 3, 3) for _ in range(k)]
        initial = random_density_operator(rng, d)
        outcomes = [int(rng.integers(s.m_real)) for s in steps]
        try:
            exact = direct_estimate(initial, steps, outcomes)
        except ZeroEvidenceError:
            pytest.skip("outcome draw impossible for this instance")
        states = run_filter(initial, steps, outcomes)
        assert np.abs(states[-1].estimate.matrix - exact.matrix).max() <= 1e-9

    def test_photonbox_traces_stay_unit(self, rng):
        params = PhotonBoxParams()
        step = MeasurementStep(
            composite_kraus(params, 0.0), detection_error_model(params)
        )
        initial = DensityOperator.basis_state(params.dim, 1)
        outcomes = [int(rng.integers(step.m_real)) for _ in range(50)]
        states = run_filter(initial, [step] * 50, outcomes)
        assert len(states) == 51
        for s in states:
            assert abs(np.trace(s.estimate.matrix).real - 1.0) <= 1e-8

    def test_length_mismatch(self, two_level_step, mixed_qubit):
        with pytest.raises(DimensionMismatchError):
            run_filter(mixed_qubit, [two_level_step], [])


class TestFactoredFamily:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(2, 5),
        j=st.integers(2, 4),
        k=st.integers(1, 3),
    )
    def test_truth_runs_on_the_factors(self, seed, d, j, k):
        rng = np.random.default_rng(seed)
        family = random_factored_family(rng, d, j, k)
        ops = family.operators
        assert ops.shape == (j * k, d, d)
        for jj in range(j):
            for kk in range(k):
                outer = family._flat.reshape(k, d, d)[kk]
                expected = outer @ np.diag(family._inner[jj])
                assert np.abs(ops[jj * k + kk] - expected).max() <= 1e-15
        rho = random_density_operator(rng, d)
        effects = ops.conj().transpose(0, 2, 1) @ ops
        traces = np.trace(effects @ rho.matrix, axis1=1, axis2=2).real
        assert np.abs(raw_jump_probabilities(family, rho) - traces).max() <= 1e-15
        q = int(rng.integers(j * k))
        image = ops[q] @ rho.matrix @ ops[q].conj().T
        jumped = apply_jump(family, q, rho).matrix
        assert np.abs(jumped - image / np.trace(image).real).max() <= 1e-14

    def test_stores_factors_not_the_dense_stack(self):
        family = composite_kraus(PhotonBoxParams(), 0.3)
        assert family._inner.shape == (7, 11)
        assert family._flat.shape == family._adjoints_flat.shape == (33, 11)
        assert family.operators is not family.operators


class TestSharedFactors:
    # eta's factorization (W, v) and the inner products conj(a_j) a_j^T depend
    # only on the inner stack and eta, so every photon-box step shares them.
    def test_steps_share_read_only_factors_across_alpha(self):
        params = PhotonBoxParams()
        errors = detection_error_model(params)
        families = [
            composite_kraus(params, 0.3),
            composite_kraus(params, -0.7),
            composite_kraus.__wrapped__(params, 0.3),  # the same alpha, built again
        ]
        steps = [MeasurementStep(family, errors) for family in families]
        products = [kraus._inner_products(kraus._key(f._inner)) for f in families]
        for step, family, prods in zip(steps, families, products):
            outer, hadamard, v = step._factors
            assert outer is family
            assert hadamard is steps[0]._factors[1] and v is steps[0]._factors[2]
            assert prods is products[0]
        for array in (steps[0]._factors[1], steps[0]._factors[2], products[0]):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        assert hadamard.shape == (6, 11, 11) and v.shape == (6, 3)

    def test_other_eta_or_inner_stack_gets_its_own_factors(self):
        params = PhotonBoxParams()
        errors = detection_error_model(params)
        family = composite_kraus(params, 0.3)
        base = MeasurementStep(family, errors)._factors[1]
        other_eta = detection_error_model(PhotonBoxParams(detection_efficiency=0.5))
        other_inner = composite_kraus(PhotonBoxParams(phase_per_photon=0.5), 0.3)
        for step in (
            MeasurementStep(family, other_eta),
            MeasurementStep(other_inner, errors),
        ):
            assert step._factors[1] is not base
            assert np.abs(step._factors[1] - base).max() > 1e-3

    def test_distinct_alphas_factor_eta_once(self):
        params = PhotonBoxParams()
        errors = detection_error_model(params)
        kraus._row_factors.cache_clear()
        kraus._inner_products.cache_clear()
        for alpha in np.linspace(-1.0, 1.0, 200):
            step = MeasurementStep(composite_kraus(params, alpha), errors)
            kraus._effects(step.family)
        assert kraus._row_factors.cache_info().misses == 1
        assert kraus._inner_products.cache_info().misses == 1

    @pytest.mark.parametrize(
        "alpha",
        [0.0, 0.3, -0.7, 0.4 - 0.3j, -1.0, -0.5, -0.2, 0.5, 1.0, 0.25j, -0.6 + 0.2j],
    )
    def test_photonbox_tolerance_is_the_measured_spectral_defect(self, alpha):
        params = PhotonBoxParams()
        atoms, cavity = photonbox._sectors(params)
        flat = (cavity @ photonbox.displacement(alpha, params.n_max)).reshape(-1, 11)
        gram = (atoms.conj().T @ atoms) * (flat.conj().T @ flat)
        defect = np.abs(np.linalg.eigvalsh(gram - np.eye(11))).max()
        expected = float(defect) * (1.0 + 1e-9) + 1e-14
        family = composite_kraus.__wrapped__(params, alpha)
        # Formed on first read, bit for bit; until then only a lower bound.
        assert family._tolerance is None
        assert family._tolerance_floor <= expected
        assert family.completeness_tolerance == expected


class TestFactoredUpdate:
    # A factored family's update runs on the outer stack; it must agree with
    # the dense sum_q eta[p, q] M_q rho M_q^dag both when eta depends only on
    # the inner jump and when it does not (the trivial factorization).
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(2, 5),
        j=st.integers(2, 4),
        k=st.integers(2, 3),
        separable=st.booleans(),
    )
    def test_matches_dense(self, seed, d, j, k, separable):
        rng = np.random.default_rng(seed)
        family = random_factored_family(rng, d, j, k)
        errors = random_error_model(rng, 3, j, strictly_positive=True)
        eta = np.repeat(errors.eta, k, axis=1)
        if not separable:
            eta = random_error_model(rng, 3, j * k, strictly_positive=True).eta
        step = MeasurementStep(family, ErrorModel(eta))
        assert (step._factors[0] is family) == separable
        assert len(step._factors[0]._flat) == (k if separable else j * k) * d
        states = np.stack([random_density_operator(rng, d).matrix for _ in range(5)])
        p = rng.integers(3, size=5)
        updated, regularized = block_update(step, states, p)
        assert regularized == []
        for i in range(5):
            expected = dense_update(family, eta[p[i]], states[i])
            serial = filter_update(
                FilterState(estimate=DensityOperator(states[i])), step, int(p[i])
            )
            assert np.abs(updated[i] - expected).max() <= 1e-14
            assert np.abs(serial.estimate.matrix - expected).max() <= 1e-14

    def test_regularized_row_inside_a_factored_block(self, rng):
        # Inner jump 1 never fires from |0>, and the detector reads the inner
        # jump perfectly: a filter sure of |0> cannot explain p = 1.
        s = np.sqrt(0.5)
        inner = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        b, _ = np.linalg.qr(g)
        family = KrausFamily._factored(inner, b.reshape(2, 3, 3), 1e-12)
        step = MeasurementStep(family, ErrorModel(np.repeat(np.eye(2), 2, axis=1)))
        assert step._factors[0] is family
        sure = DensityOperator.basis_state(3, 0)
        mixed = random_density_operator(rng, 3)
        states = np.stack([mixed.matrix, sure.matrix, mixed.matrix])
        p = np.array([0, 1, 1])
        updated, regularized = block_update(step, states, p)
        assert regularized == [(0, 1)]
        expected = filter_update(FilterState(estimate=sure), step, 1)
        assert expected.regularized
        assert np.abs(updated[1] - expected.estimate.matrix).max() <= 1e-15
        for i in (0, 2):
            dense = dense_update(family, step.errors.eta[p[i]], states[i])
            assert np.abs(updated[i] - dense).max() <= 1e-14

    @pytest.mark.parametrize("separable", [True, False])
    def test_all_zero_eta_row_raises(self, rng, separable):
        family = random_factored_family(rng, 3, 2, 2)
        eta = np.repeat(np.array([[0.7, 0.2], [0.3, 0.8], [0.0, 0.0]]), 2, axis=1)
        if not separable:
            eta[:2] = [[0.7, 0.1, 0.4, 0.5], [0.3, 0.9, 0.6, 0.5]]
        step = MeasurementStep(family, ErrorModel(eta))
        assert (step._factors[0] is family) == separable
        rho = random_density_operator(rng, 3)
        with pytest.raises(ZeroEvidenceError):
            filter_update(FilterState(estimate=rho), step, 2)
        with pytest.raises(ZeroEvidenceError):
            block_update(step, np.stack([rho.matrix] * 2), np.array([0, 2]))

import numpy as np
import pytest

from qfilter import (
    DensityOperator,
    ErrorModel,
    FilterState,
    KrausFamily,
    MeasurementStep,
    direct_estimate,
    filter_update,
    marginal_evidence,
    outcome_probabilities,
    run_filter,
    sequence_posterior,
)
from qfilter import oracle
from qfilter.kraus import raw_jump_probabilities
from qfilter.photonbox import PhotonBoxParams, composite_kraus, detection_error_model
from qfilter.errors import (
    CombinatorialExplosionError,
    IndexOutOfRangeError,
    ZeroEvidenceError,
)
from qfilter.verify import random_density_operator, random_measurement_step


class TestDirectEstimate:
    def test_zero_steps_returns_initial(self, mixed_qubit):
        out = direct_estimate(mixed_qubit, [], [])
        assert np.abs(out.matrix - mixed_qubit.matrix).max() < 1e-15

    def test_single_step_is_filter_update(self, two_level_step, mixed_qubit):
        exact = direct_estimate(mixed_qubit, [two_level_step], [0])
        recursive = filter_update(FilterState(estimate=mixed_qubit), two_level_step, 0)
        assert np.abs(exact.matrix - recursive.estimate.matrix).max() < 1e-14

    def test_multi_step_matches_recursion(self, rng):
        d, m, k = 3, 3, 4
        steps = [random_measurement_step(rng, d, m, m) for _ in range(k)]
        initial = random_density_operator(rng, d)
        outcomes = [int(rng.integers(m)) for _ in range(k)]
        exact = direct_estimate(initial, steps, outcomes)
        final = run_filter(initial, steps, outcomes)[-1]
        assert np.abs(exact.matrix - final.estimate.matrix).max() <= 1e-9

    def test_enumeration_guard(self, mixed_qubit):
        ops = [np.eye(2, dtype=complex) / np.sqrt(10.0)] * 10
        family = KrausFamily(ops, completeness_tolerance=1e-9)
        eta = ErrorModel(np.full((2, 10), 0.5))
        step = MeasurementStep(family, eta)
        with pytest.raises(CombinatorialExplosionError) as err:
            direct_estimate(mixed_qubit, [step] * 7, [0] * 7)
        assert err.value.n_sequences == 10**7
        assert err.value.max_feasible_k == 6

    def test_impossible_record_raises(self, projective_family):
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        vac = DensityOperator.basis_state(2, 0)
        with pytest.raises(ZeroEvidenceError):
            direct_estimate(vac, [step], [1])


@pytest.mark.parametrize("outcome", [-1, 2])
def test_outcome_out_of_range_is_the_filter_error(two_level_step, mixed_qubit, outcome):
    # the oracle and the recursion reject the same bad record the same way
    for call in (direct_estimate, marginal_evidence, sequence_posterior):
        with pytest.raises(IndexOutOfRangeError):
            call(mixed_qubit, [two_level_step], [outcome])
    with pytest.raises(IndexOutOfRangeError):
        run_filter(mixed_qubit, [two_level_step], [outcome])


class TestSequencePosterior:
    def test_perfect_detector_concentrates(self, projective_family, rng):
        # repeated projective measurement freezes the record, so the only
        # possible (hence only posterior-supported) sequence is the record
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho = random_density_operator(rng, 2)
        outcomes = [1, 1, 1]
        post = sequence_posterior(rho, [step] * 3, outcomes)
        assert post[(1, 1, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_two_level_hand_bayes(self, two_level_step, mixed_qubit):
        # P[q | p=0] proportional to eta[0, q] * 0.5 -> (0.9, 0.1)
        post = sequence_posterior(mixed_qubit, [two_level_step], [0])
        assert post[(0,)] == pytest.approx(0.9, abs=1e-12)
        assert post[(1,)] == pytest.approx(0.1, abs=1e-12)

    def test_sums_to_one(self, rng):
        d, m, k = 2, 3, 3
        steps = [random_measurement_step(rng, d, m, m) for _ in range(k)]
        rho = random_density_operator(rng, d)
        outcomes = [int(rng.integers(m)) for _ in range(k)]
        post = sequence_posterior(rho, steps, outcomes)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-10)
        assert len(post) == m**k

    def test_mixture_identity(self, rng):
        # the estimate is the posterior-weighted mixture of the conditioned
        # states along each jump sequence
        d, m, k = 2, 2, 3
        steps = [random_measurement_step(rng, d, m, m) for _ in range(k)]
        rho = random_density_operator(rng, d)
        outcomes = [int(rng.integers(m)) for _ in range(k)]
        post = sequence_posterior(rho, steps, outcomes)
        mixture = np.zeros((d, d), dtype=complex)
        for seq, weight in post.items():
            conditioned = rho.matrix
            for j, q in enumerate(seq):
                op = steps[j].family.operators[q]
                conditioned = op @ conditioned @ op.conj().T
            tr = np.trace(conditioned).real
            if tr <= 0.0:
                assert weight == pytest.approx(0.0, abs=1e-12)
                continue
            mixture += weight * conditioned / tr
        exact = direct_estimate(rho, steps, outcomes)
        assert np.abs(mixture - exact.matrix).max() <= 1e-10


class TestMarginalEvidence:
    def test_zero_steps(self, mixed_qubit):
        assert marginal_evidence(mixed_qubit, [], []) == pytest.approx(1.0)

    def test_single_step_perfect_detector(self, projective_family, rng):
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho = random_density_operator(rng, 2)
        m0 = projective_family.operators[0]
        expected = float(np.trace(m0 @ rho.matrix @ m0.conj().T).real)
        assert marginal_evidence(rho, [step], [0]) == pytest.approx(expected, abs=1e-14)

    def test_telescopes_into_step_predictions(self, rng):
        d, m, k = 3, 3, 3
        steps = [random_measurement_step(rng, d, m, m) for _ in range(k)]
        rho = random_density_operator(rng, d)
        outcomes = [int(rng.integers(m)) for _ in range(k)]
        states = run_filter(rho, steps, outcomes)
        product = 1.0
        for state, step, p in zip(states[:-1], steps, outcomes):
            product *= float(outcome_probabilities(state, step)[p])
        evidence = marginal_evidence(rho, steps, outcomes)
        assert abs(evidence - product) <= 1e-10
        assert 0.0 < evidence <= 1.0


# Photon-box records at d = 11 (21 jumps per step), one displacement per step.
PHOTONBOX_RECORDS = [
    ((0.0, 0.3, -0.2 + 0.1j), (1, 0, 4)),
    ((0.4 - 0.3j, 0.0, 0.2), (2, 3, 0)),
    ((0.0, 0.0, 0.0), (5, 1, 2)),
]


def _photonbox_filter(alphas, outcomes):
    """Initial state, steps, final estimate and evidence prod_k tr(numerator_k)."""
    params = PhotonBoxParams()
    errors = detection_error_model(params)
    steps = [MeasurementStep(composite_kraus(params, a), errors) for a in alphas]
    initial = random_density_operator(np.random.default_rng(3), params.dim)
    states = run_filter(initial, steps, list(outcomes))
    evidence = 1.0
    for state, step, p in zip(states[:-1], steps, outcomes):
        raw = step.errors.eta @ raw_jump_probabilities(step.family, state.estimate)
        evidence *= float(raw[p])
    return initial, steps, states[-1].estimate, evidence


@pytest.mark.parametrize("alphas, outcomes", PHOTONBOX_RECORDS)
def test_photonbox_records_match_the_oracle(alphas, outcomes):
    initial, steps, final, evidence = _photonbox_filter(alphas, outcomes)
    exact = direct_estimate(initial, steps, list(outcomes))
    assert np.abs(exact.matrix - final.matrix).max() <= 1e-9
    assert abs(marginal_evidence(initial, steps, list(outcomes)) - evidence) <= 1e-10


def test_photonbox_four_step_record_matches_the_oracle():
    # 21^4 = 194,481 sequences; one enumeration gives the weighted sum and
    # the evidence that direct_estimate and marginal_evidence each compute.
    outcomes = [0, 1, 3, 2]
    alphas = (0.1, -0.1, 0.3j, 0.0)
    initial, steps, final, evidence = _photonbox_filter(alphas, outcomes)
    weighted_sum, exact_evidence, _ = oracle._enumerate(
        initial, steps, outcomes, collect_terms=False
    )
    assert np.abs(weighted_sum / exact_evidence - final.matrix).max() <= 1e-9
    assert abs(exact_evidence - evidence) <= 1e-10

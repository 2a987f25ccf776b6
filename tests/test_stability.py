import math

import numpy as np
import pytest

from qfilter import (
    PROB_FLOOR,
    DensityOperator,
    ErrorModel,
    FilterState,
    KrausFamily,
    MeasurementStep,
    TrajectoryConfig,
    check_fidelity_inequality,
    ensemble_submartingale,
    exact_one_step_submartingale,
    fidelity,
    filter_update,
    run_ensemble,
)
from qfilter.errors import (
    BadPartitionError,
    CompletenessViolationError,
    EnsembleTooSmallError,
    SubmartingaleViolationError,
    ValidationError,
)
from qfilter.kraus import raw_jump_probabilities
from qfilter.verify import (
    _random_partition,
    inequality_suite,
    random_density_operator,
    random_error_model,
    random_kraus_family,
    random_measurement_step,
)


def serial_rhs(rho_hat, rho_e, step):
    """sum_p w_p F(update_p(rho_hat), update_p(rho_e)), one filter_update at a time."""
    weights = step.errors.eta @ raw_jump_probabilities(step.family, rho_hat)
    return sum(
        w * fidelity(
            filter_update(FilterState(rho_hat), step, p).estimate,
            filter_update(FilterState(rho_e), step, p).estimate,
        )
        for p, w in enumerate(weights)
        if w > PROB_FLOOR
    )


class TestExactOneStep:
    def test_equal_states_stay_at_one(self, two_level_step, rng):
        rho = random_density_operator(rng, 2)
        check = exact_one_step_submartingale(rho, rho, two_level_step)
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-12)

    def test_two_level_closed_form_slack(self, projective_family):
        # perfect detector, rho_hat = diag(0.3, 0.7), rho_e = I/2:
        # lhs = (sqrt(0.15) + sqrt(0.35))^2, rhs = 1 (projections agree)
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho_hat = DensityOperator(np.diag([0.3, 0.7]))
        rho_e = DensityOperator.maximally_mixed(2)
        check = exact_one_step_submartingale(rho_hat, rho_e, step)
        lhs_expected = (math.sqrt(0.15) + math.sqrt(0.35)) ** 2
        assert check.lhs == pytest.approx(lhs_expected, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-12)
        assert check.slack > 0.04

    def test_random_instances_never_violate(self, rng):
        for _ in range(150):
            d = int(rng.integers(2, 5))
            step = random_measurement_step(rng, d, 3, 3)
            rho_hat = random_density_operator(rng, d)
            rho_e = random_density_operator(rng, d, rank=int(rng.integers(1, d + 1)))
            check = exact_one_step_submartingale(rho_hat, rho_e, step)
            assert check.slack >= -1e-9

    def test_degenerate_side_is_regularized(self, projective_family):
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho_hat = DensityOperator(np.diag([0.3, 0.7]))
        rho_e = DensityOperator.basis_state(2, 0)  # outcome 1 kills it
        check = exact_one_step_submartingale(rho_hat, rho_e, step)
        assert check.regularized_outcomes == (1,)
        assert check.slack >= -1e-9

    def test_rhs_matches_serial_filter_updates(self, rng, projective_family):
        cases = []
        for _ in range(60):
            d = int(rng.integers(2, 5))
            m_ideal, m_real = (int(k) for k in rng.integers(2, 5, size=2))
            step = random_measurement_step(rng, d, m_ideal, m_real)
            rank = int(rng.integers(1, d + 1))  # rank-deficient rho_e included
            cases.append((
                random_density_operator(rng, d),
                random_density_operator(rng, d, rank=rank),
                step,
            ))
        # outcome 1 has no weight from rho_e: its update is regularized
        cases.append((
            DensityOperator(np.diag([0.3, 0.7])),
            DensityOperator.basis_state(2, 0),
            MeasurementStep(projective_family, ErrorModel.identity(2)),
        ))
        for rho_hat, rho_e, step in cases:
            check = exact_one_step_submartingale(rho_hat, rho_e, step)
            assert abs(check.rhs - serial_rhs(rho_hat, rho_e, step)) <= 1e-12
        assert check.regularized_outcomes == (1,)

    def test_all_zero_eta_row_is_skipped(self, projective_family, rng):
        # reading 2 never occurs: weight 0, no ZeroEvidenceError
        step = MeasurementStep(
            projective_family, ErrorModel([[0.9, 0.2], [0.1, 0.8], [0.0, 0.0]])
        )
        rho_hat = random_density_operator(rng, 2)
        rho_e = random_density_operator(rng, 2)
        check = exact_one_step_submartingale(rho_hat, rho_e, step)
        assert check.outcome_weights[2] == 0.0
        assert check.rhs == pytest.approx(serial_rhs(rho_hat, rho_e, step), abs=1e-12)
        assert check.slack >= -1e-9

    def test_no_outcome_above_the_floor(self, rng):
        # a loosely declared family can give every reading weight below
        # PROB_FLOOR: the expectation is then 0, not a crash
        family = KrausFamily([1e-7 * np.eye(2)], completeness_tolerance=2.0)
        step = MeasurementStep(family, ErrorModel.identity(1))
        rho = random_density_operator(rng, 2)
        with pytest.raises(SubmartingaleViolationError) as err:
            exact_one_step_submartingale(rho, rho, step)
        assert err.value.rhs == 0.0

    def test_violation_raises(self, two_level_step, rng):
        # force a false "theorem" by lying about the tolerance
        rho_hat = random_density_operator(rng, 2)
        rho_e = random_density_operator(rng, 2)
        check = exact_one_step_submartingale(rho_hat, rho_e, two_level_step)
        if check.slack > 0:
            with pytest.raises(SubmartingaleViolationError):
                exact_one_step_submartingale(
                    rho_hat, rho_e, two_level_step, slack_tol=-2 * check.slack
                )


class TestEnsembleReport:
    def _ensemble(self, two_level_step, n, optimal_at_truth=True, horizon=6):
        truth = DensityOperator(np.diag([0.8, 0.2]))
        optimal = truth if optimal_at_truth else DensityOperator(np.diag([0.6, 0.4]))
        config = TrajectoryConfig(
            true_initial=truth,
            filter_initials={
                "optimal": optimal,
                "agnostic": DensityOperator.maximally_mixed(2),
            },
            steps=two_level_step,
            horizon=horizon,
            fidelity_pairs=(("optimal", "agnostic"),),
            store_states=True,
        )
        return run_ensemble(config, n, base_seed=99)

    def test_matched_initials_give_constant_one(self, two_level_step):
        truth = DensityOperator(np.diag([0.8, 0.2]))
        config = TrajectoryConfig(
            true_initial=truth,
            filter_initials={"optimal": truth, "copy": truth},
            steps=two_level_step,
            horizon=5,
            fidelity_pairs=(("optimal", "copy"),),
        )
        records = run_ensemble(config, 120, base_seed=4)
        report = ensemble_submartingale(records)
        assert report.asserted and report.passed
        assert np.abs(report.mean_fidelity - 1.0).max() < 1e-12
        assert np.abs(report.mean_delta).max() < 1e-12

    def test_statistical_gate_and_exact_spot_checks(self, two_level_step):
        records = self._ensemble(two_level_step, 150)
        report = ensemble_submartingale(records, exact_checks=40)
        assert report.asserted
        assert report.passed
        assert np.all(report.mean_delta >= -3.0 * report.se_delta)
        assert report.exact_checks == 40
        assert report.exact_min_slack >= -1e-9

    def test_too_small_ensemble_rejected(self, two_level_step):
        records = self._ensemble(two_level_step, 99)
        with pytest.raises(EnsembleTooSmallError):
            ensemble_submartingale(records)

    def test_negative_control_mismatched_initial(self, two_level_step):
        # the "optimal" filter does not start at the true state: the report
        # must flag that the submartingale statement is not asserted
        records = self._ensemble(two_level_step, 120, optimal_at_truth=False)
        report = ensemble_submartingale(records)
        assert not report.asserted
        assert "NOT asserted" in report.asserted_reason
        assert not report.passed


class TestFidelityInequality:
    def test_single_part_is_channel_monotonicity(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            family = random_kraus_family(rng, d, int(rng.integers(1, 6)))
            rho = random_density_operator(rng, d)
            sigma = random_density_operator(rng, d)
            check = check_fidelity_inequality(
                family.operators, [list(range(family.count))], rho, sigma
            )
            assert check.slack >= -1e-9
            assert check.rhs >= check.lhs - 1e-9

    def test_equal_states_equality(self, rng):
        d = 3
        family = random_kraus_family(rng, d, 4)
        rho = random_density_operator(rng, d)
        check = check_fidelity_inequality(
            family.operators, [[0, 1], [2, 3]], rho, rho
        )
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-11)
        assert abs(sum(check.outcome_weights) - 1.0) < 1e-12

    def test_degenerate_sigma_part_regularized(self):
        d = 3
        projectors = [
            np.diag((np.arange(d) == j).astype(np.complex128)) for j in range(d)
        ]
        rho = DensityOperator(np.diag([0.2, 0.3, 0.5]))
        sigma = DensityOperator(np.diag([0.0, 0.4, 0.6]))
        check = check_fidelity_inequality(
            projectors, [[0], [1, 2]], rho, sigma
        )
        assert check.regularized_outcomes == (0,)
        assert check.slack >= -1e-9

    def test_bad_partition_rejected(self, rng):
        family = random_kraus_family(rng, 2, 3)
        with pytest.raises(BadPartitionError):
            check_fidelity_inequality(
                family.operators,
                [[0, 1]],  # missing index 2
                random_density_operator(rng, 2),
                random_density_operator(rng, 2),
            )
        with pytest.raises(BadPartitionError):
            check_fidelity_inequality(
                family.operators,
                [[0, 1], [1, 2]],  # duplicate index
                random_density_operator(rng, 2),
                random_density_operator(rng, 2),
            )

    def test_incomplete_family_rejected(self, rng):
        ops = [0.5 * np.eye(2, dtype=complex)]
        with pytest.raises(CompletenessViolationError):
            check_fidelity_inequality(
                ops, [[0]], random_density_operator(rng, 2),
                random_density_operator(rng, 2),
            )

    def test_zero_operator_rejected(self, rng):
        ops = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
        with pytest.raises(ValidationError):
            check_fidelity_inequality(
                ops, [[0], [1]], random_density_operator(rng, 2),
                random_density_operator(rng, 2),
            )

    def test_suite_seed_6_has_no_violation(self):
        # instance 277 (a single unitary, pure sigma) once fell 1.16e-9
        # short through rounding noise in the fidelity's inner spectrum
        result = inequality_suite(n_instances=1000, seed=6)
        assert result.passed, result.measured
        assert result.measured["min_slack"] >= -1e-12

    def test_agrees_with_one_step_expectation(self, rng):
        # instantiating the inequality with the detector-weighted operators
        # (grouped by reading) reproduces the exact one-step check
        for _ in range(15):
            d = int(rng.integers(2, 5))
            m_ideal = int(rng.integers(2, 4))
            m_real = int(rng.integers(2, 4))
            step = MeasurementStep(
                family=random_kraus_family(rng, d, m_ideal),
                errors=random_error_model(rng, m_real, m_ideal, strictly_positive=True),
            )
            rho_hat = random_density_operator(rng, d)
            rho_e = random_density_operator(rng, d)

            coarse = []
            partition = []
            for p in range(m_real):
                part = []
                for q in range(m_ideal):
                    part.append(len(coarse))
                    coarse.append(
                        np.sqrt(step.errors.eta[p, q]) * step.family.operators[q]
                    )
                partition.append(part)

            check = check_fidelity_inequality(coarse, partition, rho_hat, rho_e)
            one_step = exact_one_step_submartingale(rho_hat, rho_e, step)
            assert abs(check.lhs - one_step.lhs) <= 1e-12
            assert abs(check.rhs - one_step.rhs) <= 1e-10
            assert check.slack >= -1e-9

    def test_is_the_one_step_check_with_an_indicator_detector(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            family = random_kraus_family(rng, d, int(rng.integers(1, 7)))
            partition = _random_partition(rng, family.count)
            indicator = np.zeros((len(partition), family.count))
            for j, part in enumerate(partition):
                indicator[j, part] = 1.0
            step = MeasurementStep(family, ErrorModel(indicator))
            rho = random_density_operator(rng, d)
            sigma = random_density_operator(rng, d, rank=int(rng.integers(1, d + 1)))
            check = check_fidelity_inequality(family.operators, partition, rho, sigma)
            one_step = exact_one_step_submartingale(rho, sigma, step)
            assert abs(check.lhs - one_step.lhs) <= 1e-14
            assert abs(check.rhs - one_step.rhs) <= 1e-14
            weights = check.outcome_weights - one_step.outcome_weights
            assert np.abs(weights).max() <= 1e-14
            assert check.regularized_outcomes == one_step.regularized_outcomes

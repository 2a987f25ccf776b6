import dataclasses
import tracemalloc

import numpy as np
import pytest

from qfilter import (
    DensityOperator,
    ErrorModel,
    FilterState,
    KrausFamily,
    MeasurementStep,
    TrajectoryConfig,
    fidelity,
    filter_update,
    outcome_probabilities,
    run_ensemble,
    run_filter,
    run_trajectory,
    simulate,
    step_truth,
)
from qfilter.photonbox import PhotonBoxParams, composite_kraus, detection_error_model
from qfilter.errors import ValidationError
from qfilter import serialize
from qfilter.stability import random_density_operator


def identity_step(d=2):
    family = KrausFamily([np.eye(d, dtype=complex)], completeness_tolerance=1e-12)
    return MeasurementStep(family, ErrorModel.identity(1))


class TestStepTruth:
    def test_identity_family_never_moves(self, rng, mixed_qubit):
        q, p, rho = step_truth(mixed_qubit, identity_step(), rng)
        assert (q, p) == (0, 0)
        assert np.abs(rho.matrix - mixed_qubit.matrix).max() < 1e-14

    def test_projective_eigenstate_is_fixed_point(self, two_level_step, rng):
        vac = DensityOperator.basis_state(2, 0)
        for _ in range(20):
            q, p, rho = step_truth(vac, two_level_step, rng)
            assert q == 0
            assert np.abs(rho.matrix - vac.matrix).max() < 1e-14

    def test_jump_statistics(self, two_level_step):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        rng = np.random.default_rng(2024)
        n = 10_000
        counts = np.zeros(2)
        for _ in range(n):
            q, _, _ = step_truth(rho, two_level_step, rng)
            counts[q] += 1
        for q, target in enumerate((0.3, 0.7)):
            sigma = np.sqrt(target * (1 - target) / n)
            assert abs(counts[q] / n - target) <= 3 * sigma


class TestRunTrajectory:
    def test_perfect_observation_tracks_truth(self, projective_family):
        # identity error model + projective probe: the filter sees the ideal
        # outcome and collapses exactly like the true state
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        rho = DensityOperator(np.diag([0.4, 0.6]))
        config = TrajectoryConfig(
            true_initial=rho,
            filter_initials={"optimal": rho},
            steps=step,
            horizon=10,
            seed=5,
            store_states=True,
        )
        record = run_trajectory(config)
        for truth, estimate in zip(
            record.true_states, record.filter_states["optimal"]
        ):
            assert np.abs(truth.matrix - estimate.matrix).max() < 1e-12

    def test_self_pair_fidelity_is_one(self, two_level_step, mixed_qubit):
        config = TrajectoryConfig(
            true_initial=mixed_qubit,
            filter_initials={"optimal": mixed_qubit},
            steps=two_level_step,
            horizon=8,
            seed=3,
            fidelity_pairs=(("optimal", "optimal"),),
        )
        record = run_trajectory(config)
        assert np.abs(record.fidelities[("optimal", "optimal")] - 1.0).max() < 1e-12

    def test_two_filter_fidelity_series(self, two_level_step, mixed_qubit):
        config = TrajectoryConfig(
            true_initial=DensityOperator(np.diag([0.8, 0.2])),
            filter_initials={
                "optimal": DensityOperator(np.diag([0.8, 0.2])),
                "agnostic": mixed_qubit,
            },
            steps=two_level_step,
            horizon=12,
            seed=11,
            fidelity_pairs=(("optimal", "agnostic"),),
        )
        record = run_trajectory(config)
        series = record.fidelities[("optimal", "agnostic")]
        assert len(series) == 13
        assert np.all((series >= 0.0) & (series <= 1.0))
        assert record.truth_matched_filter == "optimal"

    def test_recorded_states_validate(self, two_level_step, rng):
        rho = random_density_operator(rng, 2)
        config = TrajectoryConfig(
            true_initial=rho,
            filter_initials={"optimal": rho},
            steps=two_level_step,
            horizon=15,
            seed=7,
            store_states=True,
        )
        record = run_trajectory(config)
        for state in record.true_states:
            DensityOperator(state.matrix)
        for state in record.filter_states["optimal"]:
            DensityOperator(state.matrix)

    def test_step_callback_receives_feedback(self, two_level_step):
        seen = []

        def controller(k, estimate):
            seen.append((k, float(estimate.matrix[0, 0].real)))
            return two_level_step

        rho = DensityOperator(np.diag([0.25, 0.75]))
        config = TrajectoryConfig(
            true_initial=rho,
            filter_initials={"optimal": rho},
            steps=controller,
            horizon=4,
            seed=1,
        )
        run_trajectory(config)
        assert [k for k, _ in seen] == [1, 2, 3, 4]
        assert seen[0][1] == pytest.approx(0.25)

    def test_horizon_validation(self, two_level_step, mixed_qubit):
        with pytest.raises(ValidationError):
            TrajectoryConfig(
                true_initial=mixed_qubit,
                filter_initials={"f": mixed_qubit},
                steps=[two_level_step],
                horizon=2,
            )


class TestRunEnsemble:
    def test_single_trajectory_reproduces_run_trajectory(
        self, two_level_step, mixed_qubit
    ):
        config = TrajectoryConfig(
            true_initial=mixed_qubit,
            filter_initials={"optimal": mixed_qubit},
            steps=two_level_step,
            horizon=6,
        )
        [from_ensemble] = run_ensemble(config, 1, base_seed=123)
        child = np.random.SeedSequence(123).spawn(1)[0]
        direct = run_trajectory(dataclasses.replace(config, seed=child))
        assert np.array_equal(from_ensemble.real_outcomes, direct.real_outcomes)
        assert np.array_equal(from_ensemble.ideal_outcomes, direct.ideal_outcomes)

    def test_byte_identical_under_same_seed(self, two_level_step, mixed_qubit):
        config = TrajectoryConfig(
            true_initial=DensityOperator(np.diag([0.7, 0.3])),
            filter_initials={
                "optimal": DensityOperator(np.diag([0.7, 0.3])),
                "agnostic": mixed_qubit,
            },
            steps=two_level_step,
            horizon=10,
            fidelity_pairs=(("optimal", "agnostic"),),
        )
        blobs = []
        for _ in range(2):
            records = run_ensemble(config, 40, base_seed=2718)
            blob = "\n".join(
                serialize.dumps(serialize.record_to_dict(r)) for r in records
            ).encode()
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_different_seeds_differ(self, two_level_step, mixed_qubit):
        config = TrajectoryConfig(
            true_initial=mixed_qubit,
            filter_initials={"optimal": mixed_qubit},
            steps=two_level_step,
            horizon=20,
        )
        a = run_ensemble(config, 5, base_seed=1)
        b = run_ensemble(config, 5, base_seed=2)
        assert any(
            not np.array_equal(x.real_outcomes, y.real_outcomes)
            for x, y in zip(a, b)
        )

    def test_first_outcome_frequencies_match_prediction(
        self, two_level_step
    ):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        predicted = outcome_probabilities(FilterState(estimate=rho), two_level_step)
        config = TrajectoryConfig(
            true_initial=rho,
            filter_initials={"optimal": rho},
            steps=two_level_step,
            horizon=1,
        )
        n = 10_000
        records = run_ensemble(config, n, base_seed=31415)
        counts = np.bincount(
            [r.real_outcomes[0] for r in records], minlength=2
        )
        for p in range(2):
            sigma = np.sqrt(predicted[p] * (1 - predicted[p]) / n)
            assert abs(counts[p] / n - predicted[p]) <= 3 * sigma

    def test_predictions_recorded_when_asked(self, two_level_step, mixed_qubit):
        config = TrajectoryConfig(
            true_initial=mixed_qubit,
            filter_initials={"optimal": mixed_qubit},
            steps=two_level_step,
            horizon=3,
            record_predictions=True,
        )
        [record] = run_ensemble(config, 1, base_seed=0)
        rows = record.predicted_probabilities["optimal"]
        assert rows.shape == (3, 2)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


# run_ensemble(..., 8, base_seed=REGULARIZED_SEED) in the regularized-row test
# sends exactly one trajectory, the fourth, to outcome 1.
REGULARIZED_SEED = 7


def _photonbox_config(horizon, **kwargs):
    params = PhotonBoxParams()
    step = MeasurementStep(composite_kraus(params, 0.0), detection_error_model(params))
    vacuum = DensityOperator.basis_state(params.dim, 0)
    return TrajectoryConfig(
        true_initial=vacuum,
        filter_initials={
            "optimal": vacuum,
            "agnostic": DensityOperator.maximally_mixed(params.dim),
        },
        steps=step,
        horizon=horizon,
        fidelity_pairs=(("optimal", "agnostic"),),
        **kwargs,
    )


def _assert_same_record(block, single):
    assert np.array_equal(block.ideal_outcomes, single.ideal_outcomes)
    assert np.array_equal(block.real_outcomes, single.real_outcomes)
    assert block.flagged_steps == single.flagged_steps
    assert block.fidelities.keys() == single.fidelities.keys()
    for pair, series in block.fidelities.items():
        assert np.abs(series - single.fidelities[pair]).max() <= 1e-12
    for a, b in zip(block.true_states, single.true_states, strict=True):
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12
    for name, states in block.filter_states.items():
        for a, b in zip(states, single.filter_states[name], strict=True):
            assert np.abs(a.matrix - b.matrix).max() <= 1e-12
    for name, rows in block.predicted_probabilities.items():
        assert np.abs(rows - single.predicted_probabilities[name]).max() <= 1e-12


class TestBlockEngine:
    """Blocks of trajectories against blocks of one (run_trajectory)."""

    @staticmethod
    def _compare(config, n_traj, base_seed):
        records = run_ensemble(config, n_traj, base_seed=base_seed)
        children = np.random.SeedSequence(base_seed).spawn(n_traj)
        assert len(records) == n_traj
        for record, child in zip(records, children):
            _assert_same_record(
                record, run_trajectory(dataclasses.replace(config, seed=child))
            )

    def test_photonbox_blocks_match_blocks_of_one(self):
        config = _photonbox_config(8, store_states=True, record_predictions=True)
        size = simulate._block_size(config)
        assert size > 2
        self._compare(config, size + 2, base_seed=77)

    def test_two_level_blocks_match_blocks_of_one(
        self, monkeypatch, two_level_step, mixed_qubit
    ):
        # Blocks of 4 (32 * m * d * d = 256 bytes per trajectory): 4 + 4 + 2.
        monkeypatch.setattr(simulate, "BLOCK_BYTES", 4 * 256)
        config = TrajectoryConfig(
            true_initial=DensityOperator(np.diag([0.8, 0.2])),
            filter_initials={
                "optimal": DensityOperator(np.diag([0.8, 0.2])),
                "agnostic": mixed_qubit,
            },
            steps=two_level_step,
            horizon=12,
            fidelity_pairs=(("optimal", "agnostic"),),
            store_states=True,
            record_predictions=True,
        )
        assert simulate._block_size(config) == 4
        self._compare(config, 10, base_seed=5)

    def test_regularized_row_inside_a_block(self, projective_family):
        # A perfect detector: the filter sure of |0> cannot explain p = 1,
        # so the trajectories whose truth jumps to |1> take the
        # shrinking-epsilon branch; at this seed exactly one, mid-block.
        step = MeasurementStep(projective_family, ErrorModel.identity(2))
        sure = DensityOperator.basis_state(2, 0)
        truth = DensityOperator(np.diag([0.9, 0.1]))
        config = TrajectoryConfig(
            true_initial=truth,
            filter_initials={"optimal": truth, "sure": sure},
            steps=step,
            horizon=3,
            store_states=True,
        )
        records = run_ensemble(config, 8, base_seed=REGULARIZED_SEED)
        flagged = [i for i, r in enumerate(records) if r.flagged_steps]
        assert len(flagged) == 1 and flagged[0] > 0
        record = records[flagged[0]]
        assert record.flagged_steps == ((1, "sure"),)
        expected = filter_update(FilterState(estimate=sure), step, 1)
        assert expected.regularized
        got = record.filter_states["sure"][0].matrix
        assert np.abs(got - expected.estimate.matrix).max() <= 1e-15
        for i, r in enumerate(records):
            if i != flagged[0]:
                assert np.array_equal(r.real_outcomes, np.zeros(3, dtype=np.int64))
                assert np.abs(r.filter_states["sure"][-1].matrix - sure.matrix).max() == 0


class TestBufferCopies:
    """Nothing a run hands out is a view of the engine's per-block buffers."""

    def test_feedback_estimates_are_the_stored_states_one_step_back(self):
        params = PhotonBoxParams()
        step = MeasurementStep(composite_kraus(params, 0.3), detection_error_model(params))
        seen = []

        def provider(k, estimate):
            seen.append(estimate)
            return step

        config = _photonbox_config(12, store_states=True)
        record = run_trajectory(dataclasses.replace(config, steps=provider))
        first = record.filter_names[0]
        stored = record.filter_states[first]
        expected = [config.filter_initials[first]] + list(stored[:-1])
        assert len(seen) == len(expected) == 12
        assert len({e.matrix.tobytes() for e in expected}) == 12  # the filter moves
        for got, want in zip(seen, expected):
            assert np.array_equal(got.matrix, want.matrix)
            assert not got.matrix.flags.writeable
            assert not any(np.shares_memory(got.matrix, s.matrix) for s in stored)

    def test_workspace_grows_and_shrinks_with_the_family(self):
        # Feedback alternates the factored photon box (K = 3 outer operators)
        # and its dense twin (K = 21): the block's workspace grows once, and
        # every update still matches the serial recursion.
        params = PhotonBoxParams()
        errors = detection_error_model(params)
        factored = composite_kraus(params, 0.3)
        tol = factored.completeness_tolerance
        dense = KrausFamily(factored.operators, completeness_tolerance=tol)
        steps = [MeasurementStep(f, errors) for f in (dense, factored)]  # k = 1: K = 3
        config = _photonbox_config(6, store_states=True)
        record = run_trajectory(
            dataclasses.replace(config, steps=lambda k, estimate: steps[k % 2])
        )
        for name, initial in config.filter_initials.items():
            serial = run_filter(initial, record.steps, record.real_outcomes)
            for got, want in zip(record.filter_states[name], serial[1:], strict=True):
                assert np.abs(got.matrix - want.estimate.matrix).max() <= 1e-13

    def test_stored_states_share_no_memory(self):
        params = PhotonBoxParams()
        step = MeasurementStep(composite_kraus(params, 0.3), detection_error_model(params))
        config = dataclasses.replace(_photonbox_config(5, store_states=True), steps=step)
        records = run_ensemble(config, 3, base_seed=4)
        matrices = [s.matrix for r in records for s in r.true_states]
        for r in records:
            matrices += [s.matrix for states in r.filter_states.values() for s in states]
        assert len(matrices) == 3 * 3 * 5
        for i, a in enumerate(matrices):
            assert not a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in matrices[i + 1 :])


class TestRealModels:
    """A real model (real Kraus factors, real initial states) runs in float64;
    what it hands out is still complex128."""

    @staticmethod
    def _records(alpha):
        params = PhotonBoxParams()
        step = MeasurementStep(composite_kraus(params, alpha), detection_error_model(params))
        config = dataclasses.replace(_photonbox_config(20, store_states=True), steps=step)
        return config, run_ensemble(config, 4, base_seed=9)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_stored_states_are_complex_with_zero_imaginary_parts(self, alpha):
        # Guards the copy-out: complex128, read-only, and no rounding noise in
        # the imaginary parts of a real model's states.
        _, records = self._records(alpha)
        for record in records:
            states = list(record.true_states)
            states += [s for series in record.filter_states.values() for s in series]
            for state in states:
                assert state.matrix.dtype == np.complex128
                assert not state.matrix.flags.writeable
                assert not state.matrix.imag.any()

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_real_runs_match_the_serial_recursion_and_fidelity(self, alpha):
        # Guards the float64 kernels against the complex serial path. The
        # optimal filter starts pure, and the fidelity of a near-pure state
        # amplifies eigensolver rounding through the square root: float64 and
        # complex eigensolvers differ by up to 3.1e-12 here, while both sit
        # 9.7e-9 from the uncut 40-digit value (the cut's bias). So fidelities
        # are held to 1e-11, states to 1e-12.
        config, records = self._records(alpha)
        pair = config.fidelity_pairs[0]
        for record in records:
            for name, initial in config.filter_initials.items():
                serial = run_filter(initial, record.steps, record.real_outcomes)
                for got, want in zip(record.filter_states[name], serial[1:], strict=True):
                    assert np.abs(got.matrix - want.estimate.matrix).max() <= 1e-12
            a, b = (record.filter_states[name] for name in pair)
            expected = [fidelity(*(config.filter_initials[name] for name in pair))]
            expected += [fidelity(x, y) for x, y in zip(a, b, strict=True)]
            assert np.abs(record.fidelities[pair] - expected).max() <= 1e-11

    def test_complex_step_upcasts_a_real_block(self):
        # Guards the mid-run upcast: feedback alternates a real and a complex
        # drive amplitude, so a block that starts real meets complex factors.
        params = PhotonBoxParams()
        errors = detection_error_model(params)
        steps = [MeasurementStep(composite_kraus(params, a), errors) for a in (0.3, 0.3j)]
        seen = []

        def provider(k, estimate):
            seen.append(estimate)
            return steps[(k - 1) % 2]

        config = _photonbox_config(8, store_states=True)
        record = run_trajectory(dataclasses.replace(config, steps=provider))
        for name, initial in config.filter_initials.items():
            serial = run_filter(initial, record.steps, record.real_outcomes)
            for got, want in zip(record.filter_states[name], serial[1:], strict=True):
                assert np.abs(got.matrix - want.estimate.matrix).max() <= 1e-12
        assert len(seen) == 8
        for estimate in seen:
            assert estimate.matrix.dtype == np.complex128
            assert not estimate.matrix.flags.writeable
        assert record.filter_states["agnostic"][-1].matrix.imag.any()


# tracemalloc peak of a photon-box run_ensemble, 100 trajectories x 50 steps:
# 0.76-0.77 MB with float64 buffers for this real model (0.34 MB of them);
# 1.24-1.25 MB with complex per-block buffers (about 0.68 MB) in blocks of 22;
# 1.05-1.07 MB with factored updates in blocks of 22 (K = 3 outer operators);
# 1.10-1.15 MB with dense updates (m = 21) in blocks of 6, 0.44-0.47 MB for
# the earlier one-at-a-time runner. Dense blocks of 12 peaked at 1.69-1.71 MB.
ENSEMBLE_PEAK_BUDGET = 1_000_000


def test_ensemble_memory_peak_within_budget():
    config = _photonbox_config(50)
    run_ensemble(config, 2, base_seed=0)  # one-off allocations outside the trace
    tracemalloc.start()
    try:
        run_ensemble(config, 100, base_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ENSEMBLE_PEAK_BUDGET



# tracemalloc peak of a 300-step photon-box feedback run that stores its
# states and steps: 4.04-4.10 MB with real factors and float64 buffers at
# real drive amplitudes (stored states stay complex), 5.85-5.91 MB with
# complex ones; both with steps that share eta's
# factorization (one 6 x 11 x 11 W stack for all 300 distinct families),
# 7.76-7.81 MB when each step kept its own W, 27.3 MB when each family also
# kept its 21 dense operators and their adjoints. Stored dense stacks would
# add ~12 MB.
FEEDBACK_PEAK_BUDGET = 5_000_000


def test_feedback_memory_peak_within_budget():
    params = PhotonBoxParams()
    errors = detection_error_model(params)
    n_diag = np.arange(params.dim)

    def controller(k, estimate):
        n_mean = float(n_diag @ np.diagonal(estimate.matrix).real)
        alpha = min(max(0.1 * (3.0 - n_mean), -1.0), 1.0)
        return MeasurementStep(composite_kraus(params, alpha), errors)

    config = dataclasses.replace(
        _photonbox_config(300, store_states=True), steps=controller
    )
    run_trajectory(dataclasses.replace(config, horizon=2))  # one-off allocations
    composite_kraus.cache_clear()
    tracemalloc.start()
    try:
        record = run_trajectory(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len({id(step.family) for step in record.steps}) > 250
    assert peak <= FEEDBACK_PEAK_BUDGET

@pytest.mark.parametrize("seed", [-1, -5])
def test_negative_seed_rejected(seed):
    with pytest.raises(ValidationError, match="non-negative"):
        _photonbox_config(3, seed=seed)
    with pytest.raises(ValidationError, match="non-negative"):
        run_ensemble(_photonbox_config(3), 2, base_seed=seed)

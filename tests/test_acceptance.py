"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion. Criterion 5 runs a 10^4-trajectory ensemble
and dominates the suite's runtime (a few minutes).
"""

import time

import numpy as np
import pytest

from qfilter import (
    DensityOperator,
    MeasurementStep,
    TrajectoryConfig,
    ensemble_submartingale,
    run_ensemble,
)
from qfilter.photonbox import PhotonBoxParams, composite_kraus, detection_error_model
from qfilter.verify import (
    determinism_suite,
    exact_submartingale_suite,
    ideal_reduction_suite,
    inequality_suite,
    oracle_equivalence_suite,
    photonbox_structure_suite,
    predictive_consistency_suite,
)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} -- {detail}")


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    result = oracle_equivalence_suite(n_instances=200)
    elapsed = time.perf_counter() - started
    detail = (
        f"max state dev {result.measured['max_state_deviation']:.2e} <= 1e-9, "
        f"max evidence dev {result.measured['max_evidence_deviation']:.2e} <= 1e-10, "
        f"{elapsed:.1f}s < 30s"
    )
    passed = result.passed and elapsed < 30.0
    _report(1, "oracle equivalence", passed, detail)
    assert result.tolerance == {"state": 1e-9, "evidence": 1e-10}
    assert result.error is None
    assert result.passed, result.measured
    assert elapsed < 30.0


def test_criterion_2_ideal_limit_reduction():
    result = ideal_reduction_suite(n_instances=100)
    detail = f"max deviation {result.measured['max_deviation']:.2e} <= 1e-12"
    _report(2, "ideal-limit reduction", result.passed, detail)
    assert result.tolerance == {"max_deviation": 1e-12}
    assert result.error is None
    assert result.passed, result.measured


def test_criterion_3_exact_one_step_submartingale():
    result = exact_submartingale_suite(n_instances=1000)
    detail = (
        f"{result.measured['violations']} violations beyond 1e-9 in 1000 "
        f"instances, min slack {result.measured['min_slack']:.2e}, "
        f"{result.measured['regularized_updates']} regularized updates"
    )
    _report(3, "exact one-step submartingale", result.passed, detail)
    assert result.tolerance == {"slack": 1e-9}
    assert result.error is None
    assert result.measured["violations"] == 0
    assert result.measured["regularized_updates"] > 0
    assert result.passed


def test_criterion_4_fidelity_inequality():
    result = inequality_suite(n_instances=1000)
    detail = (
        f"min slack {result.measured['min_slack']:.2e} >= -1e-9, "
        f"{result.measured['single_part_instances']} single-part "
        f"(channel-monotonicity) instances, "
        f"{result.measured['degenerate_parts_hit']} degenerate parts"
    )
    _report(4, "fidelity inequality", result.passed, detail)
    assert result.tolerance == {"slack": 1e-9}
    assert result.error is None
    assert result.measured["violations"] == 0
    assert result.measured["single_part_instances"] > 0
    assert result.passed


def test_criterion_5_photonbox_ensemble_submartingale():
    params = PhotonBoxParams()
    step = MeasurementStep(
        composite_kraus(params, 0.0), detection_error_model(params)
    )
    vacuum = DensityOperator.basis_state(params.dim, 0)
    config = TrajectoryConfig(
        true_initial=vacuum,
        filter_initials={
            "optimal": vacuum,
            "agnostic": DensityOperator.maximally_mixed(params.dim),
        },
        steps=step,
        horizon=50,
        fidelity_pairs=(("optimal", "agnostic"),),
    )
    started = time.perf_counter()
    records = run_ensemble(config, 10_000, base_seed=20240505)
    report = ensemble_submartingale(records, ("optimal", "agnostic"))
    elapsed = time.perf_counter() - started

    worst_margin = float((report.mean_delta + 3.0 * report.se_delta).min())
    f_first = float(report.mean_fidelity[0])   # k = 1
    f_final = float(report.mean_fidelity[49])  # k = 50
    passed = (
        report.asserted
        and report.passed
        and worst_margin >= 0.0
        and f_final > f_first
        and elapsed < 300.0
    )
    detail = (
        f"min(mean delta + 3 SE) {worst_margin:.2e} >= 0, mean F: "
        f"{f_first:.4f} (k=1) -> {f_final:.4f} (k=50), {elapsed:.0f}s < 300s"
    )
    _report(5, "photon-box ensemble submartingale", passed, detail)
    assert report.asserted
    assert report.passed
    assert bool(np.all(report.mean_delta >= -3.0 * report.se_delta))
    assert f_final > f_first
    assert elapsed < 300.0


def test_criterion_6_photonbox_structure():
    result = photonbox_structure_suite(n_param_draws=100)
    m = result.measured
    detail = (
        f"column sums dev {m['max_column_sum_deviation']:.1e} <= 1e-12, "
        f"atom residual {m['max_atom_sector_residual']:.1e} <= 1e-12, "
        f"deficit ratio {m['cavity_deficit_ratio']:.3f} in [3.5, 4.5], "
        f"unitarity dev {m['displacement_unitarity_deviation']:.1e} <= 1e-6, "
        f"<n> = {m['coherent_mean_photon_number']:.8f} (target 0.25 +- 1e-6)"
    )
    _report(6, "photon-box structure", result.passed, detail)
    assert result.tolerance == {
        "column_sum": 1e-12,
        "atom_residual": 1e-12,
        "ratio_window": [3.5, 4.5],
        "unitarity": 1e-6,
        "mean_photon": 1e-6,
    }
    assert result.error is None
    assert result.passed, result.measured


def test_criterion_7_predictive_consistency():
    result = predictive_consistency_suite(n_traj=10_000)
    m = result.measured
    detail = (
        f"empirical {np.round(m['empirical'], 4).tolist()} vs predicted "
        f"{np.round(m['predicted'], 4).tolist()} within 3 sigma "
        f"({np.round(m['deviation_in_sigmas'], 2).tolist()} sigma)"
    )
    _report(7, "predictive consistency", result.passed, detail)
    assert result.tolerance == {"sigma_bound": 3.0}
    assert result.error is None
    assert result.passed, result.measured


def test_criterion_8_determinism():
    result = determinism_suite(n_traj=100, horizon=20)
    detail = (
        f"two runs, same base seed: {result.measured['bytes']} bytes, "
        "byte-identical"
    )
    _report(8, "determinism", result.passed, detail)
    assert result.tolerance == {}
    assert result.error is None
    assert result.passed, result.measured

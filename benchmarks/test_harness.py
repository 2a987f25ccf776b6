"""Tests of the benchmark harness itself; not part of the tier-1 suite.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qfilter import config as qconfig, density, filtering, photonbox, simulate, verify  # noqa: E402


# ---------------------------------------------------------------------------
# Self time and spans
# ---------------------------------------------------------------------------

def test_self_time_on_nested_call_tree():
    # root [0, 100] -> a [10, 40] -> c [20, 30]; root -> b [50, 90]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    # children [10, 60] and [50, 120] cover [10, 100] of the parent
    assert tracing.self_times([0, 10, 50], [100, 60, 120], [-1, 0, 0])[0] == 10


def test_tracer_records_parents_requests_and_self_time():
    tracer = tracing.Tracer(request_roots=["outer"])
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert outer(2) == 6
    assert tracer.names == ["outer", "inner", "outer", "inner"]
    assert tracer.parents == [-1, 0, -1, 2]
    assert tracer.requests == [1, 1, 2, 2]
    selfs = tracing.self_times(tracer.starts, tracer.ends, tracer.parents)
    outer_total = tracer.ends[0] - tracer.starts[0]
    inner_total = tracer.ends[1] - tracer.starts[1]
    assert selfs[0] == outer_total - inner_total
    assert selfs[1] == inner_total


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.ends[0] >= tracer.starts[0] > 0
    assert tracer._stack == []


# ---------------------------------------------------------------------------
# Wrapper installation and restoration
# ---------------------------------------------------------------------------

def test_install_wraps_caller_bindings_and_restore_removes_them():
    before = {
        "simulate.filter_update": simulate.filter_update,
        "filtering.filter_update": filtering.filter_update,
        "filtering.weighted_image": filtering.weighted_image,
        "config.composite_kraus": qconfig.composite_kraus,
        "DensityOperator.__init__": density.DensityOperator.__dict__["__init__"],
        "suite": verify.ALL_SUITES["oracle"],
    }
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert simulate.filter_update.__traced__
        assert filtering.filter_update.__traced__
        assert filtering.weighted_image.__traced__
        assert qconfig.composite_kraus.__traced__
        assert density.DensityOperator.__dict__["__init__"].__traced__
        assert verify.ALL_SUITES["oracle"].__traced__
        rho = density.DensityOperator.maximally_mixed(2)
        step = verify._two_level_step()
        filtering.run_filter(rho, [step], [0])
        assert {"density.DensityOperator", "filtering.filter_update",
                "kraus.weighted_image"} <= set(tracer.names)
    finally:
        patches.restore()
    assert tracing.wrapped_bindings() == []
    after = {
        "simulate.filter_update": simulate.filter_update,
        "filtering.filter_update": filtering.filter_update,
        "filtering.weighted_image": filtering.weighted_image,
        "config.composite_kraus": qconfig.composite_kraus,
        "DensityOperator.__init__": density.DensityOperator.__dict__["__init__"],
        "suite": verify.ALL_SUITES["oracle"],
    }
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_cover_every_declared_name():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        photonbox.composite_kraus(photonbox.PhotonBoxParams(n_max=2), 0.0)
    finally:
        patches.restore()
    metrics = tracing.layer_metrics(tracer, list(inputs.VERIFY_SIZES), 3, 1)
    assert metrics["photonbox.composite_kraus.calls"] == 1.0
    assert metrics["photonbox.composite_kraus.hit_ratio"] == 0.75
    assert metrics["oracle.direct_estimate.calls"] == 0.0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared - set(metrics) == {
        "trace.overhead_pct", "feedback.step_p99_us",
        "wall.ops_per_s", "wall.latency_p50_ms", "wall.ref_kernel_ms",
    }


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    tail = tracing.tail_percentile(values)
    if expected is None:
        assert tail is None
    else:
        assert tail[0] == expected
        beyond = sum(v > tail[1] for v in values)
        assert beyond >= 10


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).random(37))
    for pct in (0, 12.5, 50, 99, 100):
        assert tracing.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def _ensemble_outputs():
    rng = np.random.default_rng(1)
    streams = rng.integers(0, 6, size=(inputs.ENSEMBLE_N_TRAJ, 50)).tolist()
    curve = list(np.linspace(0.1, 0.9, 51))
    report = {
        workloads.PAIR_KEY: {
            "asserted": True, "passed": True, "asserted_reason": "preconditions met",
            "mean_fidelity": curve,
        }
    }
    reference = {"outcomes": workloads.outcome_digest(streams), "mean_fidelity": list(curve)}
    return report, streams, reference


def test_ensemble_gate_accepts_reference_output():
    report, streams, reference = _ensemble_outputs()
    assert workloads.check_ensemble(0, report, streams, reference) == []
    report[workloads.PAIR_KEY]["mean_fidelity"][7] += 1e-8  # eigensolver-level noise
    assert workloads.check_ensemble(0, report, streams, reference) == []


def test_ensemble_gate_rejects_flipped_outcome():
    report, streams, reference = _ensemble_outputs()
    streams[42][17] = (streams[42][17] + 1) % 6
    assert workloads.check_ensemble(0, report, streams, reference)


def test_ensemble_gate_rejects_nonzero_exit_and_failed_report():
    report, streams, reference = _ensemble_outputs()
    assert workloads.check_ensemble(2, report, streams, reference)
    report[workloads.PAIR_KEY]["passed"] = False
    assert workloads.check_ensemble(0, report, streams, reference)
    assert workloads.check_ensemble(0, None, streams, reference)


def test_ensemble_gate_rejects_moved_fidelity_curve():
    report, streams, reference = _ensemble_outputs()
    report[workloads.PAIR_KEY]["mean_fidelity"][50] += 1e-4
    assert workloads.check_ensemble(0, report, streams, reference)


@pytest.fixture(scope="module")
def feedback_record(tmp_path_factory):
    work = tmp_path_factory.mktemp("feedback")
    fb = workloads.Feedback(work, {})
    params = photonbox.PhotonBoxParams()
    controller = workloads.Controller(params, fb.errors, workloads.WallClock())
    config = simulate.TrajectoryConfig(
        true_initial=fb.true_state, filter_initials=fb.filters, steps=controller,
        horizon=40, seed=5, fidelity_pairs=(workloads.PAIR,), store_states=True,
    )
    record = simulate.run_trajectory(config)
    reference = {"outcomes": workloads.outcome_digest([record.real_outcomes])}
    return record, reference, fb.tolerances


def test_feedback_gate_accepts_reference_output(feedback_record):
    record, reference, tol = feedback_record
    assert workloads.check_feedback(record, reference, tol) == []


def test_feedback_gate_rejects_flipped_outcome(feedback_record):
    record, reference, tol = feedback_record
    flipped = record.real_outcomes.copy()
    flipped[10] = (flipped[10] + 1) % 6
    corrupted = dataclasses.replace(record, real_outcomes=flipped)
    assert workloads.check_feedback(corrupted, reference, tol)


def test_feedback_gate_rejects_falling_fidelity(feedback_record):
    record, reference, tol = feedback_record
    series = record.fidelities[workloads.PAIR].copy()
    series[-1] = series[0] - 0.01
    corrupted = dataclasses.replace(record, fidelities={workloads.PAIR: series})
    assert workloads.check_feedback(corrupted, reference, tol)


def _verify_suites(passed=True):
    suites = [{"name": name, "passed": True} for name in inputs.VERIFY_SIZES]
    suites[3]["passed"] = passed
    return suites


def test_verify_gate_rejects_failed_suite_and_nonzero_exit():
    assert workloads.check_verify(0, _verify_suites()) == []
    assert len(workloads.check_verify(2, _verify_suites(passed=False))) == 1
    assert len(workloads.check_verify(2, _verify_suites())) == 1
    assert len(workloads.check_verify(2, [])) == len(inputs.VERIFY_SIZES)


# ---------------------------------------------------------------------------
# Inputs and the bare-directory contract
# ---------------------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    for name in inputs.WORKLOADS:
        first = [inputs.instance(name, 7, i) for i in range(5)]
        assert first == [inputs.instance(name, 7, i) for i in range(5)]
        assert first != [inputs.instance(name, 8, i) for i in range(5)]
        qconfig.parse_config(inputs.config_for(name, first[0], "out"))


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

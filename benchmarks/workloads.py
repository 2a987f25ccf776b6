"""The three workloads, their correctness gates and their timing loops.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns. A call is one `qfilter simulate` (ensemble), one
feedback trajectory (feedback) or `qfilter verify --check <suite>` for each
of the seven suites (verify). Calls are timed without their gate checks;
the gates run between calls.

qfilter functions are looked up on their modules at call time
(``cli.main``, ``simulate.run_trajectory``, ...), so a traced pass reaches
the installed wrappers and an untraced pass the originals.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from qfilter import cli, config as qconfig, density, filtering, photonbox, simulate
from qfilter.errors import QFilterError, TruncationWarning

import inputs
import tracing

# The mean-fidelity curve may move by eigensolver-level amounts (the open
# _sqrt_psd fix changes fidelities by ~1e-8) without counting as a failure.
FIDELITY_TOL = 1e-6

PAIR = ("optimal", "agnostic")
PAIR_KEY = "optimal|agnostic"

# Spans that start a new request id in a traced pass: a request is a
# trajectory in ensemble, a controller step in feedback, a suite in verify.
REQUEST_ROOTS = {
    "ensemble": ["simulate.run_trajectory"],
    "feedback": ["feedback.controller"],
    "verify": [f"verify.{suite}" for suite in inputs.VERIFY_SIZES],
}

# Calls made by the traced pass: a fixed amount of work, so span counts
# repeat exactly for a seed.
TRACED_CALLS = {"ensemble": 2, "feedback": 3, "verify": 1}

# Timing normalization. The 2-CPU machine this benchmark was written on is
# shared, and identical 1000-step feedback loops took 0.89 s to 2.19 s
# within 150 s. A fixed plain-numpy kernel with the workload's shape, timed
# between consecutive pieces of timed work, tracks that drift; every
# reported time is the wall time scaled by REF_NOMINAL_S over the mean
# kernel time around it. Over 40 feedback loops this cut the spread of
# medians of 8-12 consecutive loops from 0.28-0.31 to 0.065-0.087
# (IQR / median).
REF_STEPS = 1250
REF_NOMINAL_S = 0.1


class ReferenceKernel:
    """REF_STEPS Kraus updates at d = 11, m = 21, each with an eigvalsh.

    Written against numpy alone, so no change to qfilter changes its time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        m, d = 21, 11
        isometry, _ = np.linalg.qr(
            rng.standard_normal((m * d, d)) + 1j * rng.standard_normal((m * d, d))
        )
        self.shape = (m, d)
        self.flat = isometry
        self.adjoints = np.ascontiguousarray(
            isometry.reshape(m, d, d).conj().transpose(0, 2, 1)
        ).reshape(m * d, d)
        self.weights = rng.random(m)

    def seconds(self) -> float:
        m, d = self.shape
        started = time.perf_counter()
        rho = np.eye(d, dtype=np.complex128) / d
        for _ in range(REF_STEPS):
            blocks = (self.flat @ rho).reshape(m, d, d) * self.weights[:, None, None]
            image = np.ascontiguousarray(blocks.transpose(1, 0, 2)).reshape(d, m * d)
            image = image @ self.adjoints
            image = (image + image.conj().T) / 2.0
            rho = image / image.trace().real
            np.linalg.eigvalsh(rho)
        return time.perf_counter() - started


@dataclass
class CallResult:
    """One closed-loop call.

    ``ops`` counts throughput units (trajectory-steps, steps, suites);
    ``attempted``/``failed`` count gate units (trajectories, steps, suites).
    ``latencies_s`` holds request latencies: every controller step in
    feedback, the whole call otherwise.
    """

    wall_s: float
    ops: int
    attempted: int
    failed: int
    latencies_s: List[float]
    problems: List[str] = field(default_factory=list)
    # Normalized seconds per wall second over the call (ReferenceClock).
    scale: float = 1.0
    # Normalized request latencies, when not latencies_s * scale.
    norm_latencies_s: Optional[List[float]] = None

    def normalized_latencies(self) -> List[float]:
        if self.norm_latencies_s is not None:
            return self.norm_latencies_s
        return [x * self.scale for x in self.latencies_s]


def outcome_digest(streams: Sequence[Sequence[int]]) -> str:
    """Short sha256 of detector-outcome streams."""
    h = hashlib.sha256()
    for stream in streams:
        h.update(bytes(int(p) for p in stream))
        h.update(b"|")
    return h.hexdigest()[:16]


def setup_inputs(workload: str, config_path: Path):
    """What a user of the workload does before the first call."""
    config = qconfig.load_config(config_path)
    horizon = 1 if workload == "feedback" else config.horizon
    steps = qconfig.build_steps(config.model, horizon)
    true_state, filters, _ = qconfig.resolve_states(config)
    return config, steps, true_state, filters


# ---------------------------------------------------------------------------
# Gates: each returns the list of problems found (empty means passed).
# ---------------------------------------------------------------------------

def check_ensemble(
    exit_code: int, report: Optional[Dict], streams: Sequence[Sequence[int]], reference: Dict
) -> List[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"simulate exited with code {exit_code}")
    rep = (report or {}).get(PAIR_KEY)
    if rep is None:
        problems.append("no submartingale report")
    else:
        if not rep["asserted"] or not rep["passed"]:
            problems.append(f"submartingale report not asserted/passed: {rep['asserted_reason']}")
        ref_curve = reference["mean_fidelity"]
        if len(rep["mean_fidelity"]) != len(ref_curve):
            problems.append("mean-fidelity curve has the wrong length")
        else:
            dev = max(abs(a - b) for a, b in zip(rep["mean_fidelity"], ref_curve))
            if dev > FIDELITY_TOL:
                problems.append(f"mean fidelity deviates from the reference by {dev:.2e}")
    if len(streams) != inputs.ENSEMBLE_N_TRAJ:
        problems.append(f"{len(streams)} trajectories written")
    elif outcome_digest(streams) != reference["outcomes"]:
        problems.append("detector outcomes differ from the reference")
    return problems


def check_feedback(record, reference: Dict, tolerances) -> List[str]:
    problems = []
    if outcome_digest([record.real_outcomes]) != reference["outcomes"]:
        problems.append("detector outcomes differ from the reference")
    for name, states in record.filter_states.items():
        try:
            density.DensityOperator(states[-1].matrix, tolerances)
        except QFilterError as err:
            problems.append(f"final {name} estimate fails validation: {err}")
    series = record.fidelities[PAIR]
    if series[-1] < series[0]:
        problems.append(f"final fidelity {series[-1]:.6f} below initial {series[0]:.6f}")
    return problems


def check_verify(exit_code: int, suites: Sequence[Dict]) -> List[str]:
    """One problem per failed or missing suite, or one for a failing exit."""
    problems = [
        f"suite {s['name']} failed: {s.get('error') or s.get('measured')}"
        for s in suites
        if not s["passed"]
    ]
    problems += ["missing suite"] * max(len(inputs.VERIFY_SIZES) - len(suites), 0)
    if exit_code != 0 and not problems:
        problems.append(f"verify exited with code {exit_code} but every suite passed")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _read_json(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class _Workload:
    name = ""

    def __init__(self, work_dir: Path, references: Dict, clock=None):
        self.work_dir = work_dir
        self.references = references
        self.clock = clock or WallClock()
        self.out_dir = work_dir / f"{self.name}-out"
        self.tracer: Optional[tracing.Tracer] = None

    def _run_cli(self, argv: List[str]):
        """Run ``qfilter <argv>`` in process; return exit code, wall, scale."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        started = time.perf_counter()
        exit_code = cli.main(argv)
        wall = time.perf_counter() - started
        return exit_code, wall, self.clock.lap()

    def record(self, index: int) -> Dict:
        """Reference entry of one pool entry; raises if any other gate fails."""
        self.references[str(index)] = self._reference(index)
        problems = self.call(index).problems
        if problems:
            raise RuntimeError(f"{self.name} pool entry {index}: {problems}")
        return self.references[str(index)]


class Ensemble(_Workload):
    name = "ensemble"

    def _outputs(self, index: int):
        path = inputs.write_config(self.name, index, self.work_dir)
        exit_code, wall, scale = self._run_cli(["simulate", "--config", str(path)])
        report = _read_json(self.out_dir / "report.json")
        streams = []
        try:
            with (self.out_dir / "trajectories.jsonl").open() as fh:
                next(fh)  # header
                streams = [json.loads(line)["real_outcomes"] for line in fh]
        except (OSError, StopIteration, ValueError, KeyError):
            pass
        return wall, scale, exit_code, report, streams

    def call(self, index: int) -> CallResult:
        wall, scale, exit_code, report, streams = self._outputs(index)
        problems = check_ensemble(exit_code, report, streams, self.references[str(index)])
        n = inputs.ENSEMBLE_N_TRAJ
        return CallResult(
            wall, n * inputs.ENSEMBLE_HORIZON, n, n if problems else 0, [wall], problems,
            scale,
        )

    def _reference(self, index: int) -> Dict:
        _, _, _, report, streams = self._outputs(index)
        return {
            "outcomes": outcome_digest(streams),
            "mean_fidelity": report[PAIR_KEY]["mean_fidelity"],
        }


class Verify(_Workload):
    """One call is `qfilter verify --check <suite>` for each suite in turn.

    Timing the reference kernel between suites, not only around the whole
    ~6 s verify, keeps the normalization inside the machine's speed bursts.
    """

    name = "verify"

    def call(self, index: int) -> CallResult:
        path = inputs.write_config(self.name, index, self.work_dir)
        wall = normalized = 0.0
        worst_exit = 0
        suites = []
        for suite in inputs.VERIFY_SIZES:
            exit_code, suite_wall, scale = self._run_cli(
                ["verify", "--config", str(path), "--check", suite]
            )
            wall += suite_wall
            normalized += suite_wall * scale
            worst_exit = max(worst_exit, exit_code)
            report = _read_json(self.out_dir / "report.json")
            suites += report["suites"] if report else []
        problems = check_verify(worst_exit, suites)
        n = len(inputs.VERIFY_SIZES)
        return CallResult(
            wall, n, n, min(len(problems), n), [wall], problems, normalized / wall
        )


# Steps between reference-kernel runs inside a feedback loop. A 1.3 s loop
# outlasts the machine's speed bursts, so the loop is normalized piecewise.
CLOCK_EVERY = 250


class Controller:
    """Photon-number feedback: alpha_k = clip(g (n_target - <n>), +-alpha_max).

    <n> = tr(N rho_hat) is read from the estimate handed to the callback
    (the first configured filter, ``optimal``). Records a timestamp per
    callback; consecutive differences are the step latencies. Every
    CLOCK_EVERY steps it runs the reference clock, which closes a segment:
    the interval holding the kernel run is no latency sample, and each
    segment's wall time excludes the kernel.
    """

    def __init__(self, params, errors, clock):
        self.params = params
        self.errors = errors
        self.clock = clock
        self.n_diag = np.arange(params.dim, dtype=np.float64)
        self.segments: List[List[int]] = [[]]  # callback stamps, in ns
        self.segment_walls: List[float] = []
        self.scales: List[float] = []
        self.mark = time.perf_counter()

    def lap(self) -> None:
        """Close the current segment with a reference-clock lap."""
        kernel_start = time.perf_counter()
        self.scales.append(self.clock.lap())
        self.segment_walls.append(kernel_start - self.mark)
        self.mark = time.perf_counter()
        self.segments.append([])

    def __call__(self, k: int, estimate) -> filtering.MeasurementStep:
        if k > 1 and (k - 1) % CLOCK_EVERY == 0:
            self.lap()
        self.segments[-1].append(time.perf_counter_ns())
        n_mean = float(self.n_diag @ np.diagonal(estimate.matrix).real)
        alpha = inputs.FEEDBACK_GAIN * (inputs.FEEDBACK_TARGET_PHOTONS - n_mean)
        alpha = min(max(alpha, -inputs.FEEDBACK_ALPHA_MAX), inputs.FEEDBACK_ALPHA_MAX)
        return filtering.MeasurementStep(
            photonbox.composite_kraus(self.params, alpha), self.errors
        )


class Feedback(_Workload):
    name = "feedback"

    def __init__(self, work_dir: Path, references: Dict, clock=None):
        super().__init__(work_dir, references, clock)
        path = inputs.write_config(self.name, 0, work_dir)
        config, steps, self.true_state, self.filters = setup_inputs(self.name, path)
        self.tolerances = config.tolerances
        self.errors = steps[0].errors
        self.params = photonbox.PhotonBoxParams(**config.model["params"])

    def _outputs(self, index: int):
        controller = Controller(self.params, self.errors, self.clock)
        steps = controller
        if self.tracer is not None:
            steps = self.tracer.wrap("feedback.controller", controller)
        config = simulate.TrajectoryConfig(
            true_initial=self.true_state,
            filter_initials=self.filters,
            steps=steps,
            horizon=inputs.FEEDBACK_STEPS,
            seed=index,
            fidelity_pairs=(PAIR,),
            store_states=True,
            tolerances=self.tolerances,
        )
        controller.mark = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                record = simulate.run_trajectory(config)
        except (QFilterError, TruncationWarning) as err:
            record, error = None, repr(err)
        else:
            error = None
        controller.lap()
        return controller, record, error

    def call(self, index: int) -> CallResult:
        n = inputs.FEEDBACK_STEPS
        controller, record, error = self._outputs(index)
        wall = sum(controller.segment_walls)
        normalized = sum(w * s for w, s in zip(controller.segment_walls, controller.scales))
        latencies, norm_latencies = [], []
        for stamps, scale in zip(controller.segments, controller.scales):
            for a, b in zip(stamps, stamps[1:]):
                latencies.append((b - a) / 1e9)
                norm_latencies.append((b - a) / 1e9 * scale)
        if record is None:
            problems = [f"trajectory failed: {error}"]
        else:
            problems = check_feedback(record, self.references[str(index)], self.tolerances)
        return CallResult(
            wall, n, n, n if problems else 0, latencies, problems, normalized / wall,
            norm_latencies,
        )

    def _reference(self, index: int) -> Dict:
        _, record, error = self._outputs(index)
        if record is None:
            raise RuntimeError(f"feedback pool entry {index}: {error}")
        series = record.fidelities[PAIR]
        return {
            "outcomes": outcome_digest([record.real_outcomes]),
            "initial_fidelity": float(series[0]),
            "final_fidelity": float(series[-1]),
        }


WORKLOAD_CLASSES = {"ensemble": Ensemble, "feedback": Feedback, "verify": Verify}


# ---------------------------------------------------------------------------
# Timing loops
# ---------------------------------------------------------------------------

def load_references(path: Path, workload: str) -> Dict:
    data = json.loads(path.read_text())
    expected = reference_parameters()
    if data.get("parameters") != expected:
        raise SystemExit(
            f"{path} was recorded for other workload parameters; "
            "re-record it with reference.py"
        )
    return data.get(workload, {})


def reference_parameters() -> Dict:
    """The input parameters a reference file must have been recorded with."""
    return {
        "ensemble": [inputs.ENSEMBLE_N_TRAJ, inputs.ENSEMBLE_HORIZON, inputs.ENSEMBLE_POOL],
        "feedback": [
            inputs.FEEDBACK_STEPS, inputs.FEEDBACK_POOL, inputs.FEEDBACK_TARGET_PHOTONS,
            inputs.FEEDBACK_GAIN, inputs.FEEDBACK_ALPHA_MAX,
        ],
    }


def rate(results: Sequence[CallResult], normalized: bool = True) -> float:
    """Median over calls of operations per (normalized) second."""
    return statistics.median(
        r.ops / (r.wall_s * (r.scale if normalized else 1.0)) for r in results
    )


class ReferenceClock:
    """Times the reference kernel between timed pieces of work.

    ``lap()`` runs the kernel and returns REF_NOMINAL_S over the mean of
    this and the previous kernel time: the factor that turns the wall time
    of the work done since the previous lap into normalized seconds.
    """

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.kernel.seconds()  # first run pays one-off numpy start-up
        self.last = self.kernel.seconds()

    def lap(self) -> float:
        now = self.kernel.seconds()
        scale = REF_NOMINAL_S / ((self.last + now) / 2.0)
        self.last = now
        return scale


class WallClock:
    """No normalization: for reference recording and tests."""

    def lap(self) -> float:
        return 1.0


def timed_calls(workload, seed: int, seconds: float) -> List[CallResult]:
    """Call 0 warms up untimed; calls 1.. run until ``seconds`` of call time."""
    results = [workload.call(inputs.instance(workload.name, seed, 0))]
    spent, i = 0.0, 0
    while spent < seconds:
        i += 1
        result = workload.call(inputs.instance(workload.name, seed, i))
        results.append(result)
        spent += result.wall_s
    return results


def traced_calls(workload, seed: int, spans_path: Path):
    """Run the traced pass; return its calls and per-layer metrics."""
    cache = photonbox.composite_kraus  # the unwrapped lru_cache object
    before = cache.cache_info()
    tracer = tracing.Tracer(REQUEST_ROOTS[workload.name])
    patches = tracing.install(tracer)
    workload.tracer = tracer
    try:
        results = [
            workload.call(inputs.instance(workload.name, seed, i))
            for i in range(1, TRACED_CALLS[workload.name] + 1)
        ]
    finally:
        patches.restore()
        workload.tracer = None
    after = cache.cache_info()
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(
        tracer,
        list(inputs.VERIFY_SIZES),
        after.hits - before.hits,
        after.misses - before.misses,
    )
    return results, metrics

"""Named verification suites over seeded random instances.

Each suite returns a CheckResult with measured quantities and a pass flag.
``ALL_SUITES`` is the one registry of suite names: ``run_suites`` records
each result under its key, and turns an error raised by a suite into a
failed result, so a verification run always produces a complete
machine-readable report. The CLI's ``verify`` subcommand and the acceptance
tests drive the same functions.

A suite's only parameters are its size, its ``seed`` and, for the
determinism suite, the ``horizon``. Every gate is fixed and reported in the
result's ``tolerance``:

- oracle: state deviation <= 1e-9, evidence deviation <= 1e-10;
- ideal-reduction: deviation <= 1e-12;
- submartingale-exact and inequality: no slack below -1e-9;
- photonbox-structure: column sums and atom residual <= 1e-12, cavity
  deficit ratio in [3.5, 4.5], unitarity and mean photon number <= 1e-6;
- predictive-consistency: within 3 binomial standard deviations;
- determinism: byte-identical reruns.

Also home to the seeded random-instance generators (states, exactly
complete Kraus families, error models) that the suites draw from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .density import DensityOperator
from .errormodel import ErrorModel
from .errors import QFilterError, SubmartingaleViolationError, ValidationError
from .filtering import FilterState, MeasurementStep, filter_update, outcome_probabilities, run_filter
from .kraus import KrausFamily, apply_jump
from .oracle import direct_estimate, marginal_evidence
from .photonbox import (
    PhotonBoxParams,
    atom_completeness_residual,
    cavity_completeness_deficit,
    detection_error_model,
    displacement,
    fock_operators,
)
from .simulate import TrajectoryConfig, run_ensemble, run_trajectory
from .stability import check_fidelity_inequality, exact_one_step_submartingale
from . import serialize

__all__ = [
    "CheckResult",
    "oracle_equivalence_suite",
    "ideal_reduction_suite",
    "exact_submartingale_suite",
    "inequality_suite",
    "photonbox_structure_suite",
    "predictive_consistency_suite",
    "determinism_suite",
    "ALL_SUITES",
    "run_suites",
]


@dataclass(kw_only=True)
class CheckResult:
    """Outcome of one verification suite; ``run_suites`` sets its ``name``."""

    name: str = ""
    passed: bool
    measured: Dict = field(default_factory=dict)
    tolerance: Dict = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


def random_density_operator(
    rng: np.random.Generator, dim: int, rank: Optional[int] = None
) -> DensityOperator:
    """G G^dag / tr with complex Gaussian G; full rank unless ``rank`` given."""
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must be in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def random_kraus_family(
    rng: np.random.Generator, dim: int, n_ops: int
) -> KrausFamily:
    """Exactly complete family from an orthonormalized random isometry.

    Stacks n_ops random blocks into an (n_ops * dim, dim) matrix, QR-
    orthonormalizes its columns, and splits back: sum M^dag M = I to
    machine precision by construction.
    """
    stacked = rng.standard_normal((n_ops * dim, dim)) + 1j * rng.standard_normal(
        (n_ops * dim, dim)
    )
    q, _ = np.linalg.qr(stacked)
    return KrausFamily(
        q.reshape(n_ops, dim, dim), completeness_tolerance=1e-12
    )


def random_error_model(
    rng: np.random.Generator,
    m_real: int,
    m_ideal: int,
    *,
    strictly_positive: bool = False,
) -> ErrorModel:
    """Random left-stochastic matrix; last row absorbs rounding so columns
    sum to 1 exactly. ``strictly_positive`` bounds entries away from zero
    (needed when the coarse operators must all be nonzero)."""
    low = 0.05 if strictly_positive else 0.0
    eta = low + rng.random((m_real, m_ideal))
    eta /= eta.sum(axis=0)
    eta[-1, :] = 1.0 - eta[:-1, :].sum(axis=0)
    return ErrorModel(eta)


def random_measurement_step(
    rng: np.random.Generator, dim: int, m_ideal: int, m_real: int
) -> MeasurementStep:
    return MeasurementStep(
        family=random_kraus_family(rng, dim, m_ideal),
        errors=random_error_model(rng, m_real, m_ideal),
    )


def _random_instance(
    rng: np.random.Generator,
) -> Tuple[DensityOperator, List[MeasurementStep], List[int]]:
    """Random filtering instance with outcomes sampled from the true process:
    dimension 2-4, 1-5 steps, 2 or 3 ideal and 2 or 3 real outcomes per step."""
    d = int(rng.choice((2, 3, 4)))
    k = int(rng.integers(1, 6))
    steps = [
        random_measurement_step(
            rng, d, int(rng.choice((2, 3))), int(rng.choice((2, 3)))
        )
        for _ in range(k)
    ]
    initial = random_density_operator(rng, d)
    config = TrajectoryConfig(
        true_initial=initial,
        filter_initials={"optimal": initial},
        steps=steps,
        horizon=k,
        seed=int(rng.integers(2**63)),
    )
    record = run_trajectory(config)
    return initial, steps, [int(p) for p in record.real_outcomes]


def oracle_equivalence_suite(
    n_instances: int = 200, seed: int = 20240001
) -> CheckResult:
    """Recursive filter vs. brute-force Bayes expansion on random instances.

    Also checks that the total record probability telescopes into the
    product of the per-step predicted outcome probabilities. Gates: final
    estimates within 1e-9 (max-norm), evidence within 1e-10.
    """
    tolerance = {"state": 1e-9, "evidence": 1e-10}
    rng = np.random.default_rng(seed)
    max_state_dev = 0.0
    max_evidence_dev = 0.0
    for _ in range(n_instances):
        initial, steps, outcomes = _random_instance(rng)
        states = run_filter(initial, steps, outcomes)
        exact = direct_estimate(initial, steps, outcomes)
        dev = float(
            np.abs(states[-1].estimate.matrix - exact.matrix).max()
        )
        max_state_dev = max(max_state_dev, dev)

        telescoped = 1.0
        for state, step, p in zip(states[:-1], steps, outcomes):
            telescoped *= float(outcome_probabilities(state, step)[p])
        evidence = marginal_evidence(initial, steps, outcomes)
        max_evidence_dev = max(max_evidence_dev, abs(evidence - telescoped))
    return CheckResult(
        passed=(
            max_state_dev <= tolerance["state"]
            and max_evidence_dev <= tolerance["evidence"]
        ),
        measured={
            "n_instances": n_instances,
            "max_state_deviation": max_state_dev,
            "max_evidence_deviation": max_evidence_dev,
        },
        tolerance=tolerance,
    )


def ideal_reduction_suite(
    n_instances: int = 100, seed: int = 20240002
) -> CheckResult:
    """With a perfect detector the filter update is exactly the jump update.

    Dimension and outcome count are drawn from 2-4. Gate: max-norm
    deviation <= 1e-12.
    """
    tolerance = {"max_deviation": 1e-12}
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(n_instances):
        d = int(rng.choice((2, 3, 4)))
        m = int(rng.choice((2, 3, 4)))
        family = random_kraus_family(rng, d, m)
        step = MeasurementStep(family, ErrorModel.identity(m))
        rho = random_density_operator(rng, d)
        q = int(rng.integers(m))
        via_filter = filter_update(FilterState(estimate=rho), step, q)
        via_jump = apply_jump(family, q, rho)
        dev = float(
            np.abs(via_filter.estimate.matrix - via_jump.matrix).max()
        )
        max_dev = max(max_dev, dev)
    return CheckResult(
        passed=max_dev <= tolerance["max_deviation"],
        measured={"n_instances": n_instances, "max_deviation": max_dev},
        tolerance=tolerance,
    )


def _basis_projectors(d: int) -> np.ndarray:
    """The projectors |j><j| of the computational basis, stacked (d, d, d)."""
    return np.stack([np.diag(row) for row in np.eye(d, dtype=np.complex128)])


def exact_submartingale_suite(
    n_instances: int = 1000, seed: int = 20240003
) -> CheckResult:
    """Zero one-step violations over random pairs, including degenerate ones.

    Dimensions 2-4. The first quarter of the instances uses basis-projector
    families with rank-deficient mismatched states aligned to kill an
    outcome's trace, which forces the shrinking-epsilon branch to run. Gate:
    no slack below -1e-9, and at least one regularized update.
    """
    tolerance = {"slack": 1e-9}
    rng = np.random.default_rng(seed)
    violations = 0
    min_slack = np.inf
    n_regularized = 0
    for i in range(n_instances):
        d = int(rng.integers(2, 5))
        degenerate = i < n_instances // 4
        if degenerate:
            # Projective measurement with a state missing one basis
            # direction: outcome on the missing direction has zero trace.
            family = KrausFamily(_basis_projectors(d), completeness_tolerance=1e-12)
            step = MeasurementStep(family, ErrorModel.identity(d))
            rho_hat = random_density_operator(rng, d)
            rank = int(rng.integers(1, d))
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal(
                (d, rank)
            )
            g[int(rng.integers(d)), :] = 0.0  # kill one basis direction
            mat = g @ g.conj().T
            tr = float(np.trace(mat).real)
            if tr <= 0.0:
                continue
            rho_e = DensityOperator(mat / tr)
        else:
            m_ideal = int(rng.integers(2, 5))
            m_real = int(rng.integers(2, 5))
            step = random_measurement_step(rng, d, m_ideal, m_real)
            rho_hat = random_density_operator(rng, d)
            low_rank = rng.random() < 0.3
            rho_e = random_density_operator(
                rng, d, rank=int(rng.integers(1, d)) if low_rank else None
            )
        try:
            check = exact_one_step_submartingale(
                rho_hat, rho_e, step, slack_tol=tolerance["slack"]
            )
            n_regularized += len(check.regularized_outcomes)
            min_slack = min(min_slack, check.slack)
        except SubmartingaleViolationError as err:
            violations += 1
            min_slack = min(min_slack, err.rhs - err.lhs)
    return CheckResult(
        passed=violations == 0 and n_regularized > 0,
        measured={
            "n_instances": n_instances,
            "violations": violations,
            "min_slack": float(min_slack),
            "regularized_updates": n_regularized,
        },
        tolerance=tolerance,
    )


def _random_partition(
    rng: np.random.Generator, size: int
) -> List[List[int]]:
    n_parts = int(rng.integers(1, size + 1))
    assignment = rng.integers(0, n_parts, size=size)
    # Guarantee no empty part by seeding each part with one index.
    perm = rng.permutation(size)
    for j in range(n_parts):
        assignment[perm[j]] = j
    return [
        [int(i) for i in np.flatnonzero(assignment == j)] for j in range(n_parts)
    ]


def inequality_suite(
    n_instances: int = 1000, seed: int = 20240004
) -> CheckResult:
    """Partitioned-channel fidelity inequality on random exact families.

    Dimensions 2-4, 1-8 operators. Includes single-part partitions (channel
    monotonicity of fidelity) and deliberately aligned rank-deficient sigma
    instances (basis-projector family, sigma with one basis direction zeroed
    out, the matching projector isolated in its own part) so the degenerate
    sigma branch is exercised, not just reachable. Gate: no slack below
    -1e-9, with both kinds of instance hit.
    """
    tolerance = {"slack": 1e-9}
    rng = np.random.default_rng(seed)
    min_slack = np.inf
    violations = 0
    n_degenerate = 0
    n_single_part = 0
    for i in range(n_instances):
        d = int(rng.integers(2, 5))
        if i % 7 == 3:
            # Aligned degenerate instance.
            ops = _basis_projectors(d)
            dead = int(rng.integers(d))
            rest = [j for j in range(d) if j != dead]
            partition = [[dead]] + [
                [rest[i] for i in part]
                for part in _random_partition(rng, len(rest))
            ]
            rho = random_density_operator(rng, d)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g[dead, :] = 0.0
            mat = g @ g.conj().T
            sigma = DensityOperator(mat / np.trace(mat).real)
        else:
            s = int(rng.integers(1, 9))
            ops = random_kraus_family(rng, d, s).operators
            if i % 10 == 0:
                partition = [list(range(s))]
            else:
                partition = _random_partition(rng, s)
            rho = random_density_operator(rng, d)
            if rng.random() < 0.25 and d > 1:
                sigma = random_density_operator(
                    rng, d, rank=int(rng.integers(1, d))
                )
            else:
                sigma = random_density_operator(rng, d)
        n_single_part += len(partition) == 1
        check = check_fidelity_inequality(ops, partition, rho, sigma)
        n_degenerate += len(check.regularized_outcomes)
        min_slack = min(min_slack, check.slack)
        if check.slack < -tolerance["slack"]:
            violations += 1
    return CheckResult(
        passed=violations == 0 and n_single_part > 0 and n_degenerate > 0,
        measured={
            "n_instances": n_instances,
            "violations": violations,
            "min_slack": float(min_slack),
            "single_part_instances": n_single_part,
            "degenerate_parts_hit": n_degenerate,
        },
        tolerance=tolerance,
    )


def _random_photonbox_params(rng: np.random.Generator) -> PhotonBoxParams:
    p = rng.dirichlet(np.ones(3))
    p_atom = (float(p[0]), float(p[1]), float(1.0 - p[0] - p[1]))
    return PhotonBoxParams(
        n_max=int(rng.integers(3, 11)),
        p_atom=p_atom,
        detection_efficiency=float(rng.random()),
        assign_error_g=float(rng.random()),
        assign_error_e=float(rng.random()),
        decoherence_strength=float(10 ** rng.uniform(-3, -1.5)),
        thermal_occupation=float(10 ** rng.uniform(-2.5, -1)),
        phase_per_photon=float(rng.uniform(0, np.pi)),
        reference_phase=float(rng.uniform(0, 2 * np.pi)),
    )


def photonbox_structure_suite(
    n_param_draws: int = 100, seed: int = 20240005
) -> CheckResult:
    """Structural checks of the cavity probe model.

    Random parameter draws: detection columns sum to 1 and the atom sector
    is complete, each within 1e-12. Fixed defaults: halving the decoherence
    strength divides the cavity deficit by 3.5-4.5 (second order), and
    D(0.5) is unitary and gives mean photon number 0.25, each within 1e-6.
    """
    tolerance = {
        "column_sum": 1e-12,
        "atom_residual": 1e-12,
        "ratio_window": [3.5, 4.5],
        "unitarity": 1e-6,
        "mean_photon": 1e-6,
    }
    rng = np.random.default_rng(seed)
    max_column_dev = 0.0
    max_atom_residual = 0.0
    for _ in range(n_param_draws):
        params = _random_photonbox_params(rng)
        eta = detection_error_model(params).eta
        max_column_dev = max(
            max_column_dev, float(np.abs(eta.sum(axis=0) - 1.0).max())
        )
        max_atom_residual = max(
            max_atom_residual, atom_completeness_residual(params)
        )

    defaults = PhotonBoxParams()
    halved = dataclasses.replace(
        defaults, decoherence_strength=defaults.decoherence_strength / 2
    )
    deficit = cavity_completeness_deficit(defaults)
    ratio = deficit / cavity_completeness_deficit(halved)

    d_op = displacement(0.5, defaults.n_max)
    unitarity_dev = float(
        np.abs(d_op.conj().T @ d_op - np.eye(defaults.dim)).max()
    )
    _, _, n_op = fock_operators(defaults.n_max)
    coherent = d_op[:, 0]
    mean_n = float((coherent.conj() @ n_op @ coherent).real)
    low, high = tolerance["ratio_window"]
    passed = (
        max_column_dev <= tolerance["column_sum"]
        and max_atom_residual <= tolerance["atom_residual"]
        and low <= ratio <= high
        and unitarity_dev <= tolerance["unitarity"]
        and abs(mean_n - 0.25) <= tolerance["mean_photon"]
    )
    return CheckResult(
        passed=passed,
        measured={
            "n_param_draws": n_param_draws,
            "max_column_sum_deviation": max_column_dev,
            "max_atom_sector_residual": max_atom_residual,
            "cavity_deficit": deficit,
            "cavity_deficit_ratio": float(ratio),
            "displacement_unitarity_deviation": unitarity_dev,
            "coherent_mean_photon_number": mean_n,
        },
        tolerance=tolerance,
    )


def _two_level_step() -> MeasurementStep:
    """The worked 2x2 instance: projective probe, 10% symmetric readout error."""
    family = KrausFamily(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        completeness_tolerance=1e-12,
        labels=["down", "up"],
    )
    errors = ErrorModel([[0.9, 0.1], [0.1, 0.9]])
    return MeasurementStep(family, errors, label="two-level")


def predictive_consistency_suite(
    n_traj: int = 10_000, seed: int = 20240006
) -> CheckResult:
    """First detector outcome frequencies vs. the predicted distribution.

    On the two-level model with the filter at the true state, empirical
    outcome frequencies must match the predicted probabilities within 3
    binomial standard deviations.
    """
    tolerance = {"sigma_bound": 3.0}
    step = _two_level_step()
    rho = DensityOperator(np.diag([0.3, 0.7]))
    predicted = outcome_probabilities(FilterState(estimate=rho), step)
    config = TrajectoryConfig(
        true_initial=rho,
        filter_initials={"optimal": rho},
        steps=step,
        horizon=1,
    )
    records = run_ensemble(config, n_traj, base_seed=seed)
    firsts = np.array([r.real_outcomes[0] for r in records])
    counts = np.bincount(firsts, minlength=step.m_real)
    freqs = counts / n_traj
    sigmas = np.sqrt(predicted * (1.0 - predicted) / n_traj)
    deviations = np.abs(freqs - predicted)
    passed = bool(np.all(deviations <= tolerance["sigma_bound"] * sigmas + 1e-15))
    return CheckResult(
        passed=passed,
        measured={
            "n_traj": n_traj,
            "predicted": predicted.tolist(),
            "empirical": freqs.tolist(),
            "deviation_in_sigmas": (
                deviations / np.where(sigmas > 0, sigmas, np.inf)
            ).tolist(),
        },
        tolerance=tolerance,
    )


def determinism_suite(
    n_traj: int = 50,
    horizon: int = 10,
    seed: int = 20240007,
) -> CheckResult:
    """Two ensemble runs with one base seed serialize byte-identically."""
    step = _two_level_step()
    rho = DensityOperator(np.diag([0.3, 0.7]))
    config = TrajectoryConfig(
        true_initial=rho,
        filter_initials={"optimal": rho, "alt": DensityOperator.maximally_mixed(2)},
        steps=step,
        horizon=horizon,
        fidelity_pairs=(("optimal", "alt"),),
    )
    blobs = []
    for _ in range(2):
        records = run_ensemble(config, n_traj, base_seed=seed)
        lines = [
            serialize.dumps(serialize.record_to_dict(r)) for r in records
        ]
        blobs.append("\n".join(lines).encode())
    return CheckResult(
        passed=blobs[0] == blobs[1],
        measured={"n_traj": n_traj, "bytes": len(blobs[0])},
    )


ALL_SUITES: Dict[str, Callable[..., CheckResult]] = {
    "oracle": oracle_equivalence_suite,
    "ideal-reduction": ideal_reduction_suite,
    "submartingale-exact": exact_submartingale_suite,
    "inequality": inequality_suite,
    "photonbox-structure": photonbox_structure_suite,
    "predictive-consistency": predictive_consistency_suite,
    "determinism": determinism_suite,
}


def run_suites(
    names: Sequence[str],
    suite_params: Optional[Dict[str, Dict]] = None,
) -> List[CheckResult]:
    """Run named suites with per-suite keyword overrides; never aborts early.

    Each result is named by its ``ALL_SUITES`` key. A suite that raises
    gives a failed result carrying the error: ``str`` of a QFilterError,
    ``repr`` of anything else.
    """
    suite_params = suite_params or {}
    results = []
    for name in names:
        if name not in ALL_SUITES:
            result = CheckResult(passed=False, error=f"unknown check {name!r}")
        else:
            try:
                result = ALL_SUITES[name](**suite_params.get(name, {}))
            except QFilterError as err:
                result = CheckResult(passed=False, error=str(err))
            except Exception as err:  # a crashing suite must not abort the report
                result = CheckResult(passed=False, error=repr(err))
        result.name = name
        results.append(result)
    return results

"""Stability verification: fidelity submartingale and the channel inequality.

Two independent angles on the same fact. Exactly, for one step: the
expected next-step fidelity between the optimal filter and a mismatched
filter driven by the same detector stream,

    E[F'] = sum_p P[p | rho_hat] * F(update_p(rho_hat), update_p(rho_e)),

never falls below F(rho_hat, rho_e). This is a finite sum over detector
outcomes, so it is checked by enumeration, not sampling. Statistically, for
ensembles: the per-step mean fidelity increment must stay above -3 standard
errors. The underlying operator inequality,

    F(rho, sigma) <= sum_j tr(A_j(rho)) * F(A_j(rho)/tr, A_j(sigma)/tr),
    A_j(X) = sum_{i in part_j} L_i X L_i^dag,  sum_i L_i^dag L_i = I,

is verified directly on random instances, including the degenerate case
where tr(A_j(sigma)) = 0, handled through the same shrinking-epsilon
regularization the filter uses.

Also home to the seeded random-instance generators (states, exactly
complete Kraus families, error models) used by the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .density import DensityOperator, fidelity
from .errormodel import ErrorModel
from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    EnsembleTooSmallError,
    SubmartingaleViolationError,
    ValidationError,
)
from .filtering import FilterState, MeasurementStep, filter_update, regularized_image
from .kraus import PROB_FLOOR, KrausFamily, raw_jump_probabilities
from .simulate import TrajectoryRecord

__all__ = [
    "OneStepCheck",
    "SubmartingaleReport",
    "InequalityCheck",
    "exact_one_step_submartingale",
    "ensemble_submartingale",
    "check_fidelity_inequality",
    "random_density_operator",
    "random_kraus_family",
    "random_error_model",
    "random_measurement_step",
]


# ---------------------------------------------------------------------------
# Random instance generators (seeded, reproducible)
# ---------------------------------------------------------------------------

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
    rng: np.random.Generator,
    dim: int,
    m_ideal: int,
    m_real: int,
    *,
    strictly_positive_eta: bool = False,
) -> MeasurementStep:
    return MeasurementStep(
        family=random_kraus_family(rng, dim, m_ideal),
        errors=random_error_model(
            rng, m_real, m_ideal, strictly_positive=strictly_positive_eta
        ),
    )


# ---------------------------------------------------------------------------
# Exact one-step check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneStepCheck:
    """Result of one exact conditional-expectation evaluation."""

    lhs: float                      # F(rho_hat, rho_e) before the step
    rhs: float                      # sum_p P[p] * F after the step
    slack: float                    # rhs - lhs
    outcome_weights: np.ndarray     # P[p | rho_hat], unnormalized raw traces
    regularized_outcomes: Tuple[int, ...]  # p where the rho_e side needed eps


def exact_one_step_submartingale(
    rho_hat: DensityOperator,
    rho_e: DensityOperator,
    step: MeasurementStep,
    *,
    slack_tol: float = 1e-9,
) -> OneStepCheck:
    """Enumerate detector outcomes and verify E[F'] >= F - slack_tol.

    The expectation is exact (a finite sum weighted by the predicted
    outcome probabilities of rho_hat); no sampling is involved. Outcomes
    with zero weight contribute nothing and are skipped. A mismatched-side
    denominator of zero routes through the shrinking-epsilon limit, and the
    outcome index is reported. Raises SubmartingaleViolationError if the
    inequality fails beyond ``slack_tol`` (use a wider tolerance for
    families whose completeness is only approximate: a completeness defect
    of size delta perturbs both sides by O(delta)).
    """
    if rho_hat.dim != rho_e.dim or rho_hat.dim != step.dim:
        raise DimensionMismatchError(
            f"dimensions differ: rho_hat {rho_hat.dim}, rho_e {rho_e.dim}, "
            f"step {step.dim}"
        )
    lhs = fidelity(rho_hat, rho_e)
    weights = step.errors.eta @ raw_jump_probabilities(step.family, rho_hat)

    rhs = 0.0
    regularized: List[int] = []
    hat_state = FilterState(estimate=rho_hat)
    e_state = FilterState(estimate=rho_e)
    for p, weight in enumerate(weights):
        if weight <= PROB_FLOOR:
            continue
        next_hat = filter_update(hat_state, step, p)
        next_e = filter_update(e_state, step, p)
        if next_e.regularized:
            regularized.append(p)
        rhs += float(weight) * fidelity(next_hat.estimate, next_e.estimate)

    slack = rhs - lhs
    if slack < -slack_tol:
        raise SubmartingaleViolationError(lhs, rhs, slack_tol)
    return OneStepCheck(
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        outcome_weights=weights,
        regularized_outcomes=tuple(regularized),
    )


# ---------------------------------------------------------------------------
# Ensemble-level check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmartingaleReport:
    """Ensemble statistics of the fidelity increment series.

    ``asserted`` states whether the precondition for the submartingale
    statement was met (the first pair member initialized at the true state;
    both filters always consume one shared outcome stream). When it is
    not, the numbers are still reported but carry no guarantee, and
    ``passed`` is False. The statistical gate is mean >= -3 SE at every
    step; ``exact_checks`` counts spot re-evaluations of the exact
    conditional expectation on stored states (the faithful, conditional
    form of the theorem, as opposed to the unconditional ensemble mean).
    """

    pair: Tuple[str, str]
    n_traj: int
    mean_fidelity: np.ndarray       # length horizon + 1
    mean_delta: np.ndarray          # length horizon
    se_delta: np.ndarray            # length horizon
    violation_fraction: np.ndarray  # fraction of per-trajectory decreases
    asserted: bool
    asserted_reason: str
    passed: bool
    exact_checks: int = 0
    exact_min_slack: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "pair": list(self.pair),
            "n_traj": self.n_traj,
            "mean_fidelity": self.mean_fidelity.tolist(),
            "mean_delta": self.mean_delta.tolist(),
            "se_delta": self.se_delta.tolist(),
            "violation_fraction": self.violation_fraction.tolist(),
            "asserted": self.asserted,
            "asserted_reason": self.asserted_reason,
            "passed": self.passed,
            "exact_checks": self.exact_checks,
            "exact_min_slack": self.exact_min_slack,
        }


def ensemble_submartingale(
    records: Sequence[TrajectoryRecord],
    pair: Optional[Tuple[str, str]] = None,
    *,
    exact_checks: int = 0,
    exact_check_seed: int = 0,
    exact_slack_tol: float = 1e-9,
) -> SubmartingaleReport:
    """Aggregate the fidelity increments of an ensemble into a report.

    Requires at least 100 trajectories. ``pair`` defaults to the single
    recorded fidelity pair when unambiguous. ``exact_checks`` > 0 samples
    that many (trajectory, step) points from records that stored states and
    re-verifies the exact one-step inequality there.
    """
    if len(records) < 100:
        raise EnsembleTooSmallError(
            f"need at least 100 trajectories, got {len(records)}"
        )
    if pair is None:
        pairs = {p for r in records for p in r.fidelities}
        if len(pairs) != 1:
            raise ValidationError(
                f"ambiguous fidelity pairs {sorted(pairs)}; pass pair explicitly"
            )
        pair = next(iter(pairs))

    series = np.stack([np.asarray(r.fidelities[pair]) for r in records])
    deltas = np.diff(series, axis=1)
    n = series.shape[0]
    mean_delta = deltas.mean(axis=0)
    se_delta = deltas.std(axis=0, ddof=1) / np.sqrt(n)
    violation_fraction = (deltas < 0.0).mean(axis=0)

    asserted = True
    reason = "preconditions met"
    if any(r.truth_matched_filter != pair[0] for r in records):
        asserted = False
        reason = (
            f"filter {pair[0]!r} is not initialized at the true state in every "
            "record; the submartingale statement is NOT asserted"
        )

    statistical_pass = bool(np.all(mean_delta >= -3.0 * se_delta))

    n_checked = 0
    min_slack: Optional[float] = None
    exact_ok = True
    if exact_checks > 0:
        eligible = [
            r for r in records
            if r.filter_states is not None and pair[0] in r.filter_states
            and pair[1] in r.filter_states
        ]
        if eligible:
            rng = np.random.default_rng(exact_check_seed)
            for _ in range(exact_checks):
                r = eligible[int(rng.integers(len(eligible)))]
                k = int(rng.integers(r.horizon))  # 0-based: state after k updates
                rho_hat = (
                    r.filter_initials[pair[0]] if k == 0
                    else r.filter_states[pair[0]][k - 1]
                )
                rho_e = (
                    r.filter_initials[pair[1]] if k == 0
                    else r.filter_states[pair[1]][k - 1]
                )
                try:
                    check = exact_one_step_submartingale(
                        rho_hat, rho_e, r.steps[k], slack_tol=exact_slack_tol
                    )
                    slack = check.slack
                except SubmartingaleViolationError as err:
                    slack = err.rhs - err.lhs
                    exact_ok = False
                min_slack = slack if min_slack is None else min(min_slack, slack)
                n_checked += 1

    return SubmartingaleReport(
        pair=pair,
        n_traj=n,
        mean_fidelity=series.mean(axis=0),
        mean_delta=mean_delta,
        se_delta=se_delta,
        violation_fraction=violation_fraction,
        asserted=asserted,
        asserted_reason=reason,
        passed=asserted and statistical_pass and exact_ok,
        exact_checks=n_checked,
        exact_min_slack=min_slack,
    )


# ---------------------------------------------------------------------------
# The operator inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCheck:
    """Both sides of the partitioned-channel fidelity inequality."""

    dim: int
    partition: Tuple[Tuple[int, ...], ...]
    lhs: float
    rhs: float
    slack: float                                # rhs - lhs, sign preserved
    degenerate_parts: Tuple[int, ...]           # parts with vanishing sigma trace
    part_weights: np.ndarray                    # tr(A_j(rho)) per part

    def to_dict(self) -> Dict:
        return {
            "dim": self.dim,
            "partition": [list(p) for p in self.partition],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "degenerate_parts": list(self.degenerate_parts),
        }


def check_fidelity_inequality(
    operators: Sequence[np.ndarray],
    partition: Sequence[Sequence[int]],
    rho: DensityOperator,
    sigma: DensityOperator,
    *,
    completeness_tol: float = 1e-9,
) -> InequalityCheck:
    """Evaluate both sides of the partitioned-channel fidelity inequality.

    ``operators`` must satisfy sum L^dag L = I within ``completeness_tol``
    (CompletenessViolationError otherwise) and contain no zero operator;
    ``partition`` must split their indices into disjoint non-empty parts
    covering everything (BadPartitionError otherwise). Parts where the
    sigma-side trace vanishes are evaluated at the shrinking-epsilon limit
    and reported in ``degenerate_parts``; the single-part partition reduces
    to monotonicity of fidelity under the full channel.
    """
    ops = KrausFamily(operators, completeness_tolerance=completeness_tol).operators
    d = ops.shape[1]
    if rho.dim != d or sigma.dim != d:
        raise DimensionMismatchError(
            f"states have dims {rho.dim}, {sigma.dim}; operators act on dim {d}"
        )
    norms = np.abs(ops).max(axis=(1, 2))
    if np.any(norms == 0.0):
        raise ValidationError(
            f"operator {int(np.argmin(norms))} is identically zero"
        )

    parts = tuple(tuple(int(i) for i in part) for part in partition)
    flat = [i for part in parts for i in part]
    if (
        not parts
        or any(len(part) == 0 for part in parts)
        or sorted(flat) != list(range(ops.shape[0]))
    ):
        raise BadPartitionError(
            f"partition {parts} is not a disjoint cover of 0..{ops.shape[0] - 1}"
        )

    lhs = fidelity(rho, sigma)
    rhs = 0.0
    weights = np.zeros(len(parts))
    degenerate: List[int] = []
    for j, part in enumerate(parts):
        block = ops[list(part)]
        adj = block.conj().transpose(0, 2, 1)

        def image(x: np.ndarray, block=block, adj=adj) -> np.ndarray:
            return np.tensordot(block @ x, adj, axes=([0, 2], [0, 1]))

        a_rho = image(rho.matrix)
        w = float(np.trace(a_rho).real)
        weights[j] = w
        if w <= PROB_FLOOR:
            continue  # bounded fidelity times vanishing weight
        rho_j = DensityOperator(a_rho / w)

        a_sigma = image(sigma.matrix)
        w_sigma = float(np.trace(a_sigma).real)
        if w_sigma > PROB_FLOOR:
            sigma_j = DensityOperator(a_sigma / w_sigma)
        else:
            degenerate.append(j)
            limit, _ = regularized_image(sigma.matrix, image)
            sigma_j = DensityOperator((limit + limit.conj().T) / 2.0)

        rhs += w * fidelity(rho_j, sigma_j)

    return InequalityCheck(
        dim=d,
        partition=parts,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        degenerate_parts=tuple(degenerate),
        part_weights=weights,
    )

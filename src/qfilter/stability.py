"""Stability verification: the fidelity submartingale, one step at a time.

For A_p(X) = sum_q eta[p, q] M_q X M_q^dag, the expected fidelity after one
step between the optimal filter rho_hat and a mismatched filter rho_e,

    E[F'] = sum_p tr(A_p(rho_hat)) * F(A_p(rho_hat)/tr, A_p(rho_e)/tr),

never falls below F(rho_hat, rho_e) (Rouchon, IEEE TAC 56(11), 2011). The
sum over outcomes is enumerated exactly, and both states are advanced by the
simulator's stacked filter update, its shrinking-epsilon limit included. The
partitioned-channel inequality, A_j(X) = sum_{i in part_j} L_i X L_i^dag, is
the same check with a 0/1 detector: eta[j, i] = 1 iff i is in part j. For
ensembles, the per-step mean fidelity increment must stay above -3 standard
errors.

Also home to the seeded random-instance generators (states, exactly
complete Kraus families, error models) used by the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .density import (
    DEFAULT_TOLERANCES,
    DensityOperator,
    _fidelities,
    _validated,
    fidelity,
)
from .errormodel import ErrorModel
from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    EnsembleTooSmallError,
    SubmartingaleViolationError,
    ValidationError,
)
from .filtering import MeasurementStep
from .kraus import PROB_FLOOR, KrausFamily, _workspace, raw_jump_probabilities
from .simulate import TrajectoryRecord, _update_filters

__all__ = [
    "OneStepCheck",
    "SubmartingaleReport",
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
    """Both sides of one exact conditional-expectation evaluation."""

    lhs: float                      # F(rho_hat, rho_e) before the step
    rhs: float                      # sum_p P[p] * F after the step
    slack: float                    # rhs - lhs
    outcome_weights: np.ndarray     # P[p | rho_hat], unnormalized raw traces
    regularized_outcomes: Tuple[int, ...]  # p where the rho_e side needed eps


def _one_step(
    step: MeasurementStep, rho: DensityOperator, sigma: DensityOperator
) -> Tuple[float, np.ndarray, Tuple[int, ...]]:
    """sum_p w_p F(update_p(rho), update_p(sigma)) with w = eta @ tr(M_q rho M_q^dag).

    Outcomes with w_p at or below PROB_FLOOR contribute nothing and are
    skipped. The kept outcomes update rho and sigma as two filters of one
    stack through the simulator's filter update, and every updated state is
    validated. Returns the sum, w, and the outcomes whose sigma-side update
    went through the shrinking-epsilon limit.
    """
    weights = step.errors.eta @ raw_jump_probabilities(step.family, rho)
    kept = np.flatnonzero(weights > PROB_FLOOR)
    n = kept.size
    if not n:
        return 0.0, weights, ()
    stack = np.repeat(np.stack([rho.matrix, sigma.matrix])[:, None], n, axis=1)
    out, work = np.empty_like(stack), _workspace(step._factors[0], n)
    regularized = _update_filters(step, stack, kept, DEFAULT_TOLERANCES, out, work)
    states = _validated(out, DEFAULT_TOLERANCES)
    rhs = float(weights[kept] @ _fidelities(states[0], states[1]))
    return rhs, weights, tuple(int(kept[i]) for f, i in regularized if f == 1)


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
    rhs, weights, regularized = _one_step(step, rho_hat, rho_e)
    slack = rhs - lhs
    if slack < -slack_tol:
        raise SubmartingaleViolationError(lhs, rhs, slack_tol)
    return OneStepCheck(lhs, rhs, slack, weights, regularized)


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
                rho_hat, rho_e = (
                    r.filter_initials[name] if k == 0 else r.filter_states[name][k - 1]
                    for name in pair
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

def check_fidelity_inequality(
    operators: Sequence[np.ndarray],
    partition: Sequence[Sequence[int]],
    rho: DensityOperator,
    sigma: DensityOperator,
    *,
    completeness_tol: float = 1e-9,
) -> OneStepCheck:
    """Evaluate both sides of the partitioned-channel fidelity inequality.

    ``operators`` must satisfy sum L^dag L = I within ``completeness_tol``
    (CompletenessViolationError otherwise) and contain no zero operator;
    ``partition`` must split their indices into disjoint non-empty parts
    covering everything (BadPartitionError otherwise). The check is the
    one-step check of the operators with the part indicator as detector
    matrix: ``outcome_weights`` holds tr(A_j(rho)) per part, and parts where
    the sigma-side trace vanishes are evaluated at the shrinking-epsilon
    limit and reported in ``regularized_outcomes``. The single-part
    partition reduces to monotonicity of fidelity under the full channel.
    """
    family = KrausFamily(operators, completeness_tolerance=completeness_tol)
    d = family.dim
    if rho.dim != d or sigma.dim != d:
        raise DimensionMismatchError(
            f"states have dims {rho.dim}, {sigma.dim}; operators act on dim {d}"
        )
    norms = np.abs(family.operators).max(axis=(1, 2))
    if np.any(norms == 0.0):
        raise ValidationError(
            f"operator {int(np.argmin(norms))} is identically zero"
        )

    parts = tuple(tuple(int(i) for i in part) for part in partition)
    flat = [i for part in parts for i in part]
    if (
        not parts
        or any(len(part) == 0 for part in parts)
        or sorted(flat) != list(range(family.count))
    ):
        raise BadPartitionError(
            f"partition {parts} is not a disjoint cover of 0..{family.count - 1}"
        )

    indicator = np.zeros((len(parts), family.count))
    for j, part in enumerate(parts):
        indicator[j, list(part)] = 1.0
    lhs = fidelity(rho, sigma)
    rhs, weights, regularized = _one_step(
        MeasurementStep(family, ErrorModel(indicator)), rho, sigma
    )
    return OneStepCheck(lhs, rhs, rhs - lhs, weights, regularized)

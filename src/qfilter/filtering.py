"""Optimal recursive state estimation from imperfect detector records.

Given per-step Kraus families {M_q} and detection-error matrices eta, the
least-squares-optimal estimate of the state conditioned on the detector
record p_1..p_k obeys the recursion

    rho' = sum_q eta[p, q] M_q rho M_q^dag / tr(same),

and the probability of seeing outcome p next is exactly that denominator.
Both facts follow from Bayes' law over the unobserved ideal jumps; the
brute-force expansion lives in the oracle module and is used to certify
this recursion.

The same recursion run from an arbitrary initial state is a consistent
(if suboptimal) estimator; when its denominator vanishes the update is
defined through a shrinking-epsilon limit (see ``filter_update``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .density import DEFAULT_TOLERANCES, DensityOperator, Tolerances, _real_divide
from .errormodel import ErrorModel
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    RegularizationWarning,
    ZeroEvidenceError,
)
from .kraus import (
    PROB_FLOOR,
    KrausFamily,
    _clamp_and_renormalize,
    _factor_rows,
    raw_jump_probabilities,
    weighted_image,
)

__all__ = [
    "MeasurementStep",
    "FilterState",
    "filter_update",
    "outcome_probabilities",
    "run_filter",
    "EPS_LADDER",
    "EPS_STABILIZATION_TOL",
    "regularized_image",
]

# Shrinking-epsilon ladder for degenerate updates, and the max-norm threshold
# at which two successive rungs count as stabilized.
EPS_LADDER = (1e-8, 1e-10, 1e-12)
EPS_STABILIZATION_TOL = 1e-6


@dataclass(frozen=True)
class MeasurementStep:
    """One time step: a Kraus family paired with its detection-error matrix.

    ``_factors`` = (outer, W, v) of ``kraus._factor_rows``, for the block
    engine. W and v depend only on the family's inner stack and eta, so they
    are shared, read-only, by every step with that inner stack and eta (the
    photon box at each drive amplitude): building a step looks them up and
    factors nothing.
    """

    family: KrausFamily
    errors: ErrorModel
    label: Optional[str] = None

    def __post_init__(self):
        if self.family.count != self.errors.m_ideal:
            raise DimensionMismatchError(
                f"family has {self.family.count} jumps but error model expects "
                f"m_ideal={self.errors.m_ideal}"
            )
        object.__setattr__(self, "_factors", _factor_rows(self.family, self.errors.eta))

    @property
    def m_real(self) -> int:
        return self.errors.m_real

    @property
    def m_ideal(self) -> int:
        return self.family.count

    @property
    def dim(self) -> int:
        return self.family.dim


@dataclass(frozen=True)
class FilterState:
    """A filter estimate.

    ``regularized`` marks whether the update that produced this state went
    through the shrinking-epsilon branch.
    """

    estimate: DensityOperator
    regularized: bool = False


def regularized_image(
    rho: np.ndarray,
    image: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Normalized image of a CP map at a state whose image trace vanishes.

    Evaluates image((rho + eps I)/tr(rho + eps I)), normalized, along the
    shrinking eps ladder and accepts the smaller-eps member of the first
    pair that agrees to ``EPS_STABILIZATION_TOL`` in max-norm. If no pair
    agrees, emits RegularizationWarning and returns the smallest-eps image.
    Such a limit point always exists (states live in a compact set); any
    stabilized limit is acceptable.
    """
    d = rho.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    prev = None
    for eps in EPS_LADDER:
        rho_eps = (rho + eps * eye) / (np.trace(rho).real + eps * d)
        out = image(rho_eps)
        tr = np.trace(out).real
        if tr <= 0.0:
            raise ZeroEvidenceError(
                "map image has nonpositive trace even at a positive definite "
                "regularization; the outcome is impossible from every state"
            )
        out = out / tr
        if prev is not None and float(np.abs(out - prev).max()) < EPS_STABILIZATION_TOL:
            return out
        prev = out
    warnings.warn(
        "shrinking-epsilon regularization did not stabilize across "
        f"{EPS_LADDER}; using the smallest-epsilon value",
        RegularizationWarning,
        stacklevel=2,
    )
    return prev


def filter_update(
    state: FilterState,
    step: MeasurementStep,
    p: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> FilterState:
    """Advance the estimate by one detector outcome p.

    The normalized numerator sum_q eta[p, q] M_q rho M_q^dag is
    re-symmetrized as the new estimate is built (``DensityOperator``), which
    bounds Hermiticity drift over long runs. When the denominator falls at
    or below the probability floor (possible only if the current
    estimate is rank-deficient), the update is evaluated at positive
    definite regularizations (rho + eps I)/tr and the stabilized limit is
    taken; the returned state is flagged ``regularized``.

    If the outcome is impossible from every state (all eta[p, q] M_q
    vanish), raises ZeroEvidenceError.
    """
    family = step.family
    if family.dim != state.estimate.dim:
        raise DimensionMismatchError(
            f"step dimension {family.dim} != estimate dimension {state.estimate.dim}"
        )
    if not 0 <= p < step.m_real:
        raise IndexOutOfRangeError(
            f"real outcome {p} out of range for m_real={step.m_real}"
        )
    eta_row = step.errors.eta[p]
    rho = state.estimate.matrix

    numerator = weighted_image(family, eta_row, rho)
    denominator = float(numerator.trace().real)
    regularized = False
    if denominator > PROB_FLOOR:
        new_matrix = _real_divide(numerator, denominator)
    else:
        # Structurally impossible outcome: every coarse operator is zero.
        strength = float(
            (eta_row * (np.abs(family.operators) ** 2).sum(axis=(1, 2))).sum()
        )
        if strength <= PROB_FLOOR:
            raise ZeroEvidenceError(
                f"outcome {p} has zero probability from every state "
                "(all coarse operators vanish)"
            )
        new_matrix = regularized_image(
            rho, lambda x: weighted_image(family, eta_row, x)
        )
        regularized = True

    return FilterState(
        estimate=DensityOperator(new_matrix, tolerances),
        regularized=regularized,
    )


def outcome_probabilities(state: FilterState, step: MeasurementStep) -> np.ndarray:
    """Predicted distribution of the next detector outcome.

    Component p is tr(sum_q eta[p, q] M_q rho M_q^dag) = (eta @ jump_probs)_p,
    clamped and renormalized exactly as jump probabilities are. Because eta
    is column-stochastic the vector sums to 1 within the family's
    completeness tolerance before renormalization.
    """
    if step.dim != state.estimate.dim:
        raise DimensionMismatchError(
            f"step dimension {step.dim} != estimate dimension {state.estimate.dim}"
        )
    raw = step.errors.eta @ raw_jump_probabilities(step.family, state.estimate)
    return _clamp_and_renormalize(raw, step.family)


def run_filter(
    initial: DensityOperator,
    steps: Sequence[MeasurementStep],
    outcomes: Sequence[int],
    *,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> List[FilterState]:
    """Run the recursion over a recorded outcome sequence.

    Returns the estimates for steps 1..k+1; index 0 is the (unmodified)
    initial state, index j the estimate after consuming outcomes[:j].
    """
    if len(steps) != len(outcomes):
        raise DimensionMismatchError(
            f"{len(steps)} steps but {len(outcomes)} outcomes"
        )
    state = FilterState(estimate=initial)
    states = [state]
    for step, p in zip(steps, outcomes):
        state = filter_update(state, step, int(p), tolerances)
        states.append(state)
    return states

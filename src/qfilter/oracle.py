"""Brute-force Bayesian estimate over all ideal-jump sequences.

Ground truth for the recursive filter: conditioning on the detector record
p_1..p_k and marginalizing over every possible ideal-jump sequence
(q_1..q_k) gives

    estimate = sum_q_vec w(q_vec) M_vec rho1 M_vec^dag / tr(same),
    w(q_vec) = eta^1[p_1, q_1] * ... * eta^k[p_k, q_k],
    M_vec    = M_{q_k;k} ... M_{q_1;1}.

Exponential in k by construction; exists solely to certify the recursion on
small instances. Accumulation uses extended precision where the platform
provides it (x86 80-bit long double), otherwise Kahan-compensated float64,
because the terms span many orders of magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .density import DensityOperator
from .errors import (
    CombinatorialExplosionError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    ZeroEvidenceError,
)
from .filtering import MeasurementStep
from .kraus import PROB_FLOOR

__all__ = [
    "ENUMERATION_GUARD",
    "direct_estimate",
    "sequence_posterior",
    "marginal_evidence",
]

ENUMERATION_GUARD = 10**6

_ACC_DTYPE = np.complex256 if hasattr(np, "complex256") else np.complex128


def _check_instance(
    initial: DensityOperator,
    steps: Sequence[MeasurementStep],
    outcomes: Sequence[int],
) -> int:
    if len(steps) != len(outcomes):
        raise DimensionMismatchError(
            f"{len(steps)} steps but {len(outcomes)} outcomes"
        )
    total = 1
    for step, p in zip(steps, outcomes):
        if step.dim != initial.dim:
            raise DimensionMismatchError(
                f"step dimension {step.dim} != initial dimension {initial.dim}"
            )
        if not 0 <= int(p) < step.m_real:
            raise IndexOutOfRangeError(
                f"outcome {p} out of range for m_real={step.m_real}"
            )
        total *= step.m_ideal
    if total > ENUMERATION_GUARD:
        branching = max((s.m_ideal for s in steps), default=1)
        max_k = 0
        cap = 1
        while cap * branching <= ENUMERATION_GUARD:
            cap *= branching
            max_k += 1
        raise CombinatorialExplosionError(total, ENUMERATION_GUARD, max_k)
    return total


def _enumerate(
    initial: DensityOperator,
    steps: Sequence[MeasurementStep],
    outcomes: Sequence[int],
    *,
    collect_terms: bool,
) -> Tuple[np.ndarray, float, Dict[Tuple[int, ...], float]]:
    """Depth-first accumulation of the weighted sum, its trace, and
    (optionally) the per-sequence evidence weights w * tr(M_vec rho M_vec^dag)."""
    k = len(steps)
    d = initial.dim
    eta_rows = [step.errors.eta[outcomes[j]] for j, step in enumerate(steps)]
    op_stacks = [step.family.operators for step in steps]

    # Kahan-compensated accumulation in the widest available complex dtype.
    weighted_sum = np.zeros((d, d), dtype=_ACC_DTYPE)
    compensation = np.zeros((d, d), dtype=_ACC_DTYPE)
    evidence = _ACC_DTYPE(0.0)
    terms: Dict[Tuple[int, ...], float] = {}

    prefix: List[int] = []

    def descend(j: int, conditioned: np.ndarray, weight: float) -> None:
        nonlocal weighted_sum, compensation, evidence
        if j == k:
            y = (weight * conditioned).astype(_ACC_DTYPE) - compensation
            t = weighted_sum + y
            compensation = (t - weighted_sum) - y
            weighted_sum = t
            term = weight * float(np.trace(conditioned).real)
            evidence = evidence + term
            if collect_terms:
                terms[tuple(prefix)] = term
            return
        ops = op_stacks[j]
        row = eta_rows[j]
        for q in range(ops.shape[0]):
            w = weight * row[q]
            prefix.append(q)
            descend(j + 1, ops[q] @ conditioned @ ops[q].conj().T, w)
            prefix.pop()

    descend(0, initial.matrix.astype(np.complex128), 1.0)
    return (
        weighted_sum.astype(np.complex128),
        float(evidence.real),
        terms,
    )


def direct_estimate(
    initial: DensityOperator,
    steps: Sequence[MeasurementStep],
    outcomes: Sequence[int],
) -> DensityOperator:
    """Non-recursive optimal estimate by exhaustive jump-sequence enumeration.

    Raises CombinatorialExplosionError when the instance exceeds
    ``ENUMERATION_GUARD`` sequences, and ZeroEvidenceError when the outcome
    record is impossible from the initial state.
    """
    _check_instance(initial, steps, outcomes)
    weighted_sum, evidence, _ = _enumerate(
        initial, steps, outcomes, collect_terms=False
    )
    if evidence <= PROB_FLOOR:
        raise ZeroEvidenceError(
            f"outcome record has probability {evidence:.3e} from this initial state"
        )
    return DensityOperator(weighted_sum / evidence)


def sequence_posterior(
    initial: DensityOperator,
    steps: Sequence[MeasurementStep],
    outcomes: Sequence[int],
) -> Dict[Tuple[int, ...], float]:
    """Posterior probability of each ideal-jump sequence given the record.

    Each entry is proportional to the eta-weight product times
    tr(M_vec rho1 M_vec^dag); the map sums to 1.
    """
    _check_instance(initial, steps, outcomes)
    _, evidence, terms = _enumerate(initial, steps, outcomes, collect_terms=True)
    if evidence <= PROB_FLOOR:
        raise ZeroEvidenceError(
            f"outcome record has probability {evidence:.3e} from this initial state"
        )
    return {seq: term / evidence for seq, term in terms.items()}


def marginal_evidence(
    initial: DensityOperator,
    steps: Sequence[MeasurementStep],
    outcomes: Sequence[int],
) -> float:
    """Probability of the detector record given the initial state.

    Telescopes into the product over steps of the filter's predicted
    outcome probabilities, which is how the test suite cross-checks it.
    """
    _check_instance(initial, steps, outcomes)
    _, evidence, _ = _enumerate(initial, steps, outcomes, collect_terms=False)
    return evidence

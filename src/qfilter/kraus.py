"""Kraus operator families: completeness checking, jumps, and weighted images.

A family {M_q} with sum_q M_q^dag M_q = I describes one measurement step.
Detecting jump q collapses rho to M_q rho M_q^dag / tr(...), with
probability tr(M_q rho M_q^dag). Families are stored stacked (m, d, d) so
the per-step linear algebra is a handful of batched numpy calls.

Approximately complete families (deficit up to a declared tolerance) are
accepted; probability vectors are then renormalized. This accommodates
physically truncated models whose completeness holds only to second order
in a small decoherence parameter.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .density import DEFAULT_TOLERANCES, DensityOperator, Tolerances
from .errors import (
    CompletenessViolationError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    ProbabilityDeficitError,
    ValidationError,
    ZeroProbabilityJumpError,
)

__all__ = [
    "PROB_FLOOR",
    "KrausFamily",
    "apply_jump",
]

# Below this, a jump probability is treated as zero: dividing by it would
# amplify rounding noise past any useful precision.
PROB_FLOOR = 1e-12


def _gram(ops: np.ndarray) -> np.ndarray:
    """sum_q M_q^dag M_q of a stack (m, d, d), as one (d, m*d) @ (m*d, d) gemm."""
    flat = ops.reshape(-1, ops.shape[-1])
    return flat.conj().T @ flat


class KrausFamily:
    """Ordered set of same-dimension Kraus operators with completeness check.

    Labels are human-readable metadata only; all math indexes by position.
    """

    __slots__ = (
        "operators",
        "labels",
        "completeness_tolerance",
        "_flat",
        "_adjoints_flat",
    )

    def __init__(
        self,
        operators: Sequence,
        *,
        completeness_tolerance: float = 1e-9,
        labels: Optional[Sequence[str]] = None,
    ):
        ops = np.asarray(operators, dtype=np.complex128)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatchError(
                f"expected a stack of square matrices, got shape {ops.shape}"
            )
        if ops.shape[0] < 1:
            raise ValidationError("a Kraus family needs at least one operator")
        if not np.all(np.isfinite(ops)):
            raise ValidationError("Kraus operators contain NaN or Inf entries")
        if labels is not None and len(labels) != ops.shape[0]:
            raise ValidationError(
                f"{len(labels)} labels for {ops.shape[0]} operators"
            )

        tol = completeness_tolerance
        if not 0.0 <= tol < math.inf:
            raise ValidationError(
                f"completeness_tolerance must be finite and >= 0, got {tol!r}"
            )
        deviation = float(np.abs(_gram(ops) - np.eye(ops.shape[1])).max())
        if deviation > tol:
            raise CompletenessViolationError(deviation, tol)

        m, d, _ = ops.shape
        ops = np.ascontiguousarray(ops)
        ops.flags.writeable = False
        # Contiguous (m*d, d) layouts so per-step algebra is two gemms.
        flat = ops.reshape(m * d, d)
        adj_flat = np.ascontiguousarray(
            ops.conj().transpose(0, 2, 1)
        ).reshape(m * d, d)
        adj_flat.flags.writeable = False
        self.operators = ops
        self._flat = flat
        self._adjoints_flat = adj_flat
        self.labels = tuple(labels) if labels is not None else None
        self.completeness_tolerance = float(tol)

    @property
    def count(self) -> int:
        return self.operators.shape[0]

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"KrausFamily(count={self.count}, dim={self.dim}, "
            f"tolerance={self.completeness_tolerance:.2e})"
        )


def _check_dim(family: KrausFamily, rho: DensityOperator) -> None:
    if family.dim != rho.dim:
        raise DimensionMismatchError(
            f"family dimension {family.dim} != state dimension {rho.dim}"
        )


def _weighted_images(
    family: KrausFamily,
    weights: np.ndarray,
    stack: np.ndarray,
    images: np.ndarray,
    weighted: np.ndarray,
) -> np.ndarray:
    """sum_q weights[n, q] M_q rho_n M_q^dag for a stack (N, d, d), as (N*d, d).

    Two gemms through caller-owned workspaces of N*m*d*d entries each: the
    images M_q rho_n of the states side by side, (m*d, d) @ (d, N*d), then
    their weighted rearrangement (N*d, m*d) @ (m*d, d).
    """
    m, d = family.count, family.dim
    n = stack.shape[0]
    images = images.reshape(m * d, n * d)
    np.matmul(family._flat, stack.transpose(1, 0, 2).reshape(d, n * d), out=images)
    weighted = weighted.reshape(n, d, m, d)
    np.multiply(
        images.reshape(m, d, n, d).transpose(2, 1, 0, 3),
        weights.reshape(n, 1, m, 1),
        out=weighted,
    )
    return weighted.reshape(n * d, m * d) @ family._adjoints_flat


def weighted_image(
    family: KrausFamily, weights: np.ndarray, rho_matrix: np.ndarray
) -> np.ndarray:
    """sum_q weights[q] M_q rho M_q^dag as two gemms over the stacked family."""
    size = family.count * family.dim**2
    return _weighted_images(
        family,
        np.reshape(weights, (1, -1)),
        rho_matrix[None],
        np.empty(size, dtype=np.complex128),
        np.empty(size, dtype=np.complex128),
    )


def _effects(family: KrausFamily) -> np.ndarray:
    """The effects E_q = M_q^dag M_q, stacked (m, d, d)."""
    m, d = family.count, family.dim
    return family._adjoints_flat.reshape(m, d, d) @ family.operators


def _traces(effects: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tr(M_q rho_n M_q^dag) = tr(E_q rho_n) for a stack (..., d, d), as (N, m)."""
    m, d = effects.shape[:2]
    return (stack.reshape(-1, d * d).conj() @ effects.reshape(m, d * d).T).real


def raw_jump_probabilities(family: KrausFamily, rho: DensityOperator) -> np.ndarray:
    """tr(M_q rho M_q^dag) per q, with no clamping or renormalization."""
    _check_dim(family, rho)
    return _traces(_effects(family), rho.matrix)[0]


def _clamp_and_renormalize(
    probs: np.ndarray, tolerance: float
) -> np.ndarray:
    """Clamp and renormalize a probability vector, or each row of a stack."""
    deviation = probs.sum(axis=-1) - 1.0
    if np.abs(deviation).max() > tolerance + 1e-12:
        first = deviation[np.abs(deviation) > tolerance + 1e-12].flat[0]
        raise ProbabilityDeficitError(float(first), tolerance)
    lowest = float(probs.min())
    if lowest < -PROB_FLOOR:
        raise ValidationError(
            f"probability component {lowest:.3e} below -{PROB_FLOOR:.0e}; "
            "input state is likely not PSD"
        )
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def _jumps(
    family: KrausFamily,
    q: np.ndarray,
    stack: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """M_q[n] rho_n M_q[n]^dag / tr(...) for a stack (N, d, d) and jumps q (N,).

    Raises ZeroProbabilityJumpError for the first jump whose trace is at or
    below PROB_FLOOR. Writes to ``out`` when given.
    """
    m, d = family.count, family.dim
    jumped = family.operators[q] @ stack @ family._adjoints_flat.reshape(m, d, d)[q]
    prob = jumped.trace(axis1=1, axis2=2).real
    low = prob <= PROB_FLOOR
    if low.any():
        i = int(low.argmax())
        raise ZeroProbabilityJumpError(
            f"jump {q[i]} has probability {prob[i]:.3e} <= {PROB_FLOOR:.0e}"
        )
    return np.divide(jumped, prob[:, None, None], out=out)


def apply_jump(
    family: KrausFamily,
    q: int,
    rho: DensityOperator,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> DensityOperator:
    """Conditional state after detecting jump q: M_q rho M_q^dag / tr(...)."""
    _check_dim(family, rho)
    if not 0 <= q < family.count:
        raise IndexOutOfRangeError(
            f"jump index {q} out of range for {family.count} operators"
        )
    jumped = _jumps(family, np.array([q]), rho.matrix[None])
    return DensityOperator(jumped[0], tolerances)

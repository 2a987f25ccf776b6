"""Kraus operator families: completeness checking, jumps, and weighted images.

A family {M_q} with sum_q M_q^dag M_q = I describes one measurement step.
Detecting jump q collapses rho to M_q rho M_q^dag / tr(...), with
probability tr(M_q rho M_q^dag).

A family is stored as its factors: J inner diagonals a_j (J, d) and K outer
operators B_k (K, d, d), with M_(j*K + k) = B_k diag(a_j); unfactored, J = 1
and B = M. As M_q rho M_q^dag = B_k ((a_j a_j^dag) o rho) B_k^dag (o is the
elementwise product), the per-step algebra is a few batched numpy calls over
the K outer operators. A factored family (the photon box) builds its dense
stack ``operators`` only on request, for callers outside the step engine.

Approximately complete families (deficit up to a declared tolerance) are
accepted; probability vectors are then renormalized. This accommodates
physically truncated models whose completeness holds only to second order
in a small decoherence parameter.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

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


def _gram(inner: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """sum_q M_q^dag M_q = (sum_j conj(a_j) a_j^T) o (sum_k B_k^dag B_k).

    ``flat`` is the outer stack as (K*d, d), so its Gram is one gemm.
    """
    return (inner.conj().T @ inner) * (flat.conj().T @ flat)


class KrausFamily:
    """Ordered set of same-dimension Kraus operators with completeness check.

    Labels are human-readable metadata only; all math indexes by position.
    ``KrausFamily(operators)`` is an unfactored family; ``_factored`` builds
    one from its inner diagonals and outer stack.
    """

    __slots__ = (
        "labels",
        "completeness_tolerance",
        "_inner",
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
        ones = np.ones((1, ops.shape[1]))
        self._set_factors(ones, ops, completeness_tolerance, labels)

    @classmethod
    def _factored(cls, inner, outer, tolerance, labels=None) -> "KrausFamily":
        """The family M_(j*K + k) = outer[k] @ diag(inner[j]), stored as its factors."""
        family = cls.__new__(cls)
        family._set_factors(inner, outer, tolerance, labels)
        return family

    def _set_factors(self, inner, outer, tol, labels) -> None:
        (j, d), k = inner.shape, len(outer)
        if labels is not None and len(labels) != j * k:
            raise ValidationError(f"{len(labels)} labels for {j * k} operators")
        if not 0.0 <= tol < math.inf:
            raise ValidationError(
                f"completeness_tolerance must be finite and >= 0, got {tol!r}"
            )
        # Read-only, contiguous (K*d, d) layouts so per-step algebra is two gemms.
        inner, outer = np.ascontiguousarray(inner), np.ascontiguousarray(outer)
        adjoints = outer.conj().transpose(0, 2, 1).reshape(k * d, d)
        for array in (inner, outer, adjoints):
            array.flags.writeable = False
        self._inner, self._flat = inner, outer.reshape(k * d, d)
        self._adjoints_flat = adjoints
        deviation = float(np.abs(_gram(inner, self._flat) - np.eye(d)).max())
        if deviation > tol:
            raise CompletenessViolationError(deviation, tol)
        self.labels = tuple(labels) if labels is not None else None
        self.completeness_tolerance = float(tol)

    @property
    def operators(self) -> np.ndarray:
        """The dense stack (m, d, d); a factored family builds it on each call."""
        d = self.dim
        outer = self._flat.reshape(-1, d, d)
        if len(self._inner) == 1 and (self._inner == 1).all():
            return outer
        return (outer[None] * self._inner[:, None, None, :]).reshape(-1, d, d)

    @property
    def count(self) -> int:
        return len(self._inner) * (self._flat.shape[0] // self.dim)

    @property
    def dim(self) -> int:
        return self._flat.shape[1]

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
    family: KrausFamily, weights: np.ndarray, stack: np.ndarray
) -> np.ndarray:
    """sum_k weights[n, k] B_k x_n B_k^dag over the outer stack, for x (N, d, d).

    Returns (N*d, d), from two gemms: the images B_k x_n of the states side
    by side, (K*d, d) @ (d, N*d), then their weighted rearrangement
    (N*d, K*d) @ (K*d, d). For an unfactored family B = M.
    """
    n, d = stack.shape[:2]
    k = len(family._flat) // d
    images = family._flat @ stack.transpose(1, 0, 2).reshape(d, n * d)
    per_state = images.reshape(k, d, n, d).transpose(2, 1, 0, 3)  # (N, d, K, d)
    weighted = per_state * weights[:, None, :, None]
    return weighted.reshape(n * d, k * d) @ family._adjoints_flat


def _factor_rows(
    family: KrausFamily, eta: np.ndarray
) -> Tuple[KrausFamily, np.ndarray, np.ndarray]:
    """(outer, W, v) with sum_q eta[p, q] M_q x M_q^dag = sum_k v[p, k] B_k x_p B_k^dag.

    Here x_p = W_p o x. If eta[p, j*K + k] does not depend on k (the detector
    sees only the inner jump), outer is the family, W_p = sum_j eta[p, j*K]
    a_j a_j^dag and v = 1; else outer is the unfactored family, W_p = 1, v = eta.
    """
    j = len(family._inner)
    rows = eta.reshape(len(eta), j, -1)
    if j > 1 and (rows == rows[:, :, :1]).all():
        u, v = rows[:, :, 0], np.ones(rows.shape[::2])
    else:
        if j > 1:
            tol = family.completeness_tolerance
            family = KrausFamily(family.operators, completeness_tolerance=tol)
        u, v = np.ones((len(eta), 1)), eta
    a = family._inner
    hadamard = u @ (a[:, :, None] * a.conj()[:, None, :]).reshape(len(a), -1)
    return family, hadamard.reshape(-1, family.dim, family.dim), v


def weighted_image(
    family: KrausFamily, weights: np.ndarray, rho_matrix: np.ndarray
) -> np.ndarray:
    """sum_q weights[q] M_q rho M_q^dag as two gemms over the outer stack."""
    outer, hadamard, v = _factor_rows(family, np.reshape(weights, (1, -1)))
    return _weighted_images(outer, v, hadamard * rho_matrix)


def _effects(family: KrausFamily) -> np.ndarray:
    """The effects E_(j,k) = conj(a_j) a_j^T o B_k^dag B_k, stacked (m, d, d)."""
    d, a = family.dim, family._inner
    gram = family._adjoints_flat.reshape(-1, d, d) @ family._flat.reshape(-1, d, d)
    return (a.conj()[:, None, :, None] * gram * a[:, None, None, :]).reshape(-1, d, d)


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

    With q = j*K + k, the image is B_k ((a_j a_j^dag) o rho_n) B_k^dag.
    Raises ZeroProbabilityJumpError for the first jump whose trace is at or
    below PROB_FLOOR. Writes to ``out`` when given.
    """
    d = family.dim
    j, k = np.divmod(q, family._flat.shape[0] // d)
    a = family._inner[j]
    x = stack * (a[:, :, None] * a.conj()[:, None, :])
    outer = family._flat.reshape(-1, d, d)
    jumped = outer[k] @ x @ family._adjoints_flat.reshape(-1, d, d)[k]
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

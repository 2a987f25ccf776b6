"""Detector error models: left-stochastic matrices linking ideal to real outcomes.

eta[p, q] is the probability that the detectors report outcome p given that
the ideal jump q occurred. Columns therefore sum to 1. The matrix fully
captures per-step detection imperfections (missed events, misassignment);
errors are assumed independent across time steps.
"""

from __future__ import annotations

import numpy as np

from .errors import ColumnSumDeviationError, NegativeEntryError, ValidationError

__all__ = ["COLUMN_SUM_TOL", "ErrorModel", "inverse_cdf_index"]

# Strict: analytic models are exact, and numerically built ones should be
# assembled so the last entry absorbs rounding. Catches modeling bugs early.
COLUMN_SUM_TOL = 1e-12


class ErrorModel:
    """Left-stochastic detection-error matrix (m_real rows x m_ideal columns)."""

    __slots__ = ("eta",)

    def __init__(self, eta):
        m = np.asarray(eta, dtype=np.float64)
        if m.ndim != 2:
            raise ValidationError(f"error model must be 2-D, got ndim={m.ndim}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("error model contains NaN or Inf entries")
        neg = np.argwhere(m < 0.0)
        if neg.size:
            p, q = neg[0]
            raise NegativeEntryError(p, q, m[p, q])
        sums = m.sum(axis=0)
        bad = np.argwhere(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
        if bad.size:
            q = int(bad[0][0])
            raise ColumnSumDeviationError(q, float(sums[q] - 1.0), COLUMN_SUM_TOL)
        m = m.copy()
        m.flags.writeable = False
        self.eta = m

    @property
    def m_real(self) -> int:
        return self.eta.shape[0]

    @property
    def m_ideal(self) -> int:
        return self.eta.shape[1]

    @classmethod
    def identity(cls, m: int) -> "ErrorModel":
        """Perfect detector: real outcome always equals the ideal jump."""
        return cls(np.eye(m))

    def __repr__(self) -> str:
        return f"ErrorModel(m_real={self.m_real}, m_ideal={self.m_ideal})"


def inverse_cdf_index(probabilities: np.ndarray, u: float) -> int:
    """Inverse-CDF walk over a probability vector in index order.

    Deterministic and order-stable: cumulative rounding is resolved by
    assigning the final index the residual mass.
    """
    acc = 0.0
    last = len(probabilities) - 1
    for i, p in enumerate(probabilities):
        acc += p
        if u < acc:
            return i
    return last


def inverse_cdf_rows(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``inverse_cdf_index`` of each row of probabilities (N, k) at u[i].

    cumsum adds in index order, as the scalar walk does, so every index is
    the scalar walk's, the residual-mass rule included.
    """
    below = u[:, None] < probabilities.cumsum(axis=1)
    return np.where(
        below.any(axis=1), below.argmax(axis=1), probabilities.shape[1] - 1
    )


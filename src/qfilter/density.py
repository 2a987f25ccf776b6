"""Dense complex-matrix kernel and density-operator algebra.

A density operator is a Hermitian, positive semidefinite, unit-trace complex
matrix. This module owns the numerical contracts everything else leans on:
validation against configurable tolerances and the (Uhlmann) fidelity

    F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,

the squared convention, so F coincides with |<psi|phi>|^2 on pure states
(see Nielsen & Chuang ch. 9 for the unsquared variant).

All arrays handed out are read-only; constructed operators are immutable and
safe to share across trajectory workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonHermitianError,
    TraceDeviationError,
    ValidationError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "DensityOperator",
    "fidelity",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for density-operator validation.

    Defaults suit double precision with up to ~1e3 sequential updates.
    """

    herm: float = 1e-9
    trace: float = 1e-9
    psd: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()


class DensityOperator:
    """Validated quantum state (Hermitian, PSD, unit trace).

    Construction re-symmetrizes ((M + M^dag)/2) and renormalizes the trace
    when the input is within tolerance, so repeated updates cannot drift.
    The stored matrix is read-only.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tolerances: Tolerances = DEFAULT_TOLERANCES):
        m = np.asarray(matrix, dtype=np.complex128)
        tol = tolerances
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(
                f"density operator must be square, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ValidationError("matrix contains NaN or Inf entries")
        mt = m.conj().T
        dev_h = float(np.abs(m - mt).max()) if m.size else 0.0
        if dev_h > tol.herm:
            raise NonHermitianError(dev_h, tol.herm)
        clean = (m + mt) / 2.0
        tr = float(clean.trace().real)
        dev_tr = complex(m.trace())
        if abs(dev_tr.real - 1.0) > tol.trace or abs(dev_tr.imag) > tol.trace:
            raise TraceDeviationError(dev_tr.real - 1.0, tol.trace)
        lam_min = float(np.linalg.eigvalsh(clean)[0])
        if lam_min < -tol.psd:
            raise NegativeEigenvalueError(lam_min, tol.psd)
        clean /= tr
        clean.flags.writeable = False
        object.__setattr__(self, "matrix", clean)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityOperator":
        """|psi><psi| from a state vector (normalized here)."""
        psi = np.asarray(amplitudes, dtype=np.complex128).ravel()
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise ValidationError("zero state vector")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityOperator":
        """|index><index| in the computational basis."""
        psi = np.zeros(dim, dtype=np.complex128)
        psi[index] = 1.0
        return cls.from_pure(psi)

    def purity(self) -> float:
        """tr(rho^2), 1 for pure states, 1/d for the maximally mixed state."""
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.matrix.astype(dtype)
        return self.matrix

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, purity={self.purity():.6f})"


def _sqrt_psd(hermitian: np.ndarray) -> Tuple[np.ndarray, float]:
    """Square root of an already-validated Hermitian PSD matrix.

    Eigenvalues at or below d * eps * lambda_max are eigensolver noise on an
    exact zero and are dropped. Returns the root and lambda_max.
    """
    w, v = np.linalg.eigh(hermitian)
    lam_max = float(w[-1])
    cut = len(w) * np.finfo(np.float64).eps * lam_max
    return (v * np.sqrt(np.where(w > cut, w, 0.0))) @ v.conj().T, lam_max


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity (squared convention), clamped into [0, 1].

    Computed as the squared sum of the eigenvalue square roots of
    sqrt(rho) sigma sqrt(rho). Eigenvalues at or below d * eps *
    lambda_max(rho) * ||sigma||_inf, the backward error of forming that
    product, are rounding noise on an exact zero (rank-deficient inputs)
    and are dropped: the square root would otherwise amplify O(1e-17)
    noise into O(1e-9) fidelity error. With the cut, results are symmetric
    in the arguments and reproducible to well below 1e-9.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"fidelity needs equal dimensions, got {rho.dim} and {sigma.dim}"
        )
    s, lam_max = _sqrt_psd(rho.matrix)
    inner = s @ sigma.matrix @ s
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    cut = (
        len(w) * np.finfo(np.float64).eps * lam_max
        * float(np.linalg.norm(sigma.matrix, np.inf))
    )
    root_sum = float(np.sqrt(w[w > cut]).sum())
    return min(1.0, max(0.0, root_sum * root_sum))

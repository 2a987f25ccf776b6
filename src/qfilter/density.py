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

import math
from dataclasses import dataclass, fields
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
    Every tolerance must be finite and > 0: a NaN would switch its check off.
    """

    herm: float = 1e-9
    trace: float = 1e-9
    psd: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise ValidationError(
                    f"tolerance {f.name}={value!r} must be finite and > 0"
                )


DEFAULT_TOLERANCES = Tolerances()

_EPS = np.finfo(np.float64).eps


class DensityOperator:
    """Validated quantum state (Hermitian, PSD, unit trace).

    Construction re-symmetrizes ((M + M^dag)/2) and renormalizes the trace
    when the input is within tolerance, so repeated updates cannot drift.
    The stored matrix is read-only.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tolerances: Tolerances = DEFAULT_TOLERANCES):
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(
                f"density operator must be square, got shape {m.shape}"
            )
        object.__setattr__(self, "matrix", _validated(m, tolerances))

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a read-only matrix that ``_validated`` returned, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        return self

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


def _validated(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Check a matrix or a stack (..., d, d) of them as density operators.

    Finite entries, Hermiticity, unit trace and PSD (one stacked eigvalsh)
    within ``tol``; the first failing matrix in C order raises. Returns the
    re-symmetrized, trace-renormalized stack, read-only.
    """
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    mt = m.swapaxes(-1, -2).conj()
    work = m - mt
    if m.size and np.abs(work).max() > tol.herm:
        dev_h = np.abs(work).max(axis=(-2, -1))
        raise NonHermitianError(dev_h[dev_h > tol.herm].flat[0], tol.herm)
    clean = np.add(m, mt, out=work)
    clean /= 2.0
    # clean has m's real diagonal, so this is also clean's trace
    tr = m.trace(axis1=-2, axis2=-1)
    dev = np.maximum(np.abs(tr.real - 1.0), np.abs(tr.imag))
    if dev.max() > tol.trace:
        raise TraceDeviationError(tr.real[dev > tol.trace].flat[0] - 1.0, tol.trace)
    lam_min = np.linalg.eigvalsh(clean)[..., 0]
    if lam_min.min() < -tol.psd:
        raise NegativeEigenvalueError(lam_min[lam_min < -tol.psd].flat[0], tol.psd)
    clean /= tr.real[..., None, None]
    clean.flags.writeable = False
    return clean


def _sqrt_psd(hermitian: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Square root of an already-validated Hermitian PSD matrix (or stack).

    Eigenvalues at or below d * eps * lambda_max are eigensolver noise on an
    exact zero and are dropped. Returns the root and lambda_max.
    """
    w, v = np.linalg.eigh(hermitian)
    lam_max = w[..., -1]
    cut = w.shape[-1] * _EPS * lam_max
    root = np.sqrt(np.where(w > cut[..., None], w, 0.0))
    return (v * root[..., None, :]) @ v.swapaxes(-1, -2).conj(), lam_max


def _fidelities(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``fidelity`` of each pair of matching matrices in two stacks (..., d, d)."""
    s, lam_max = _sqrt_psd(rho)
    inner = s @ sigma @ s
    w = np.linalg.eigvalsh((inner + inner.swapaxes(-1, -2).conj()) / 2.0)
    cut = w.shape[-1] * _EPS * lam_max * np.abs(sigma).sum(axis=-1).max(axis=-1)
    root_sum = np.sqrt(np.where(w > cut[..., None], w, 0.0)).sum(axis=-1)
    return np.minimum(root_sum * root_sum, 1.0)


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
    return float(_fidelities(rho.matrix, sigma.matrix))

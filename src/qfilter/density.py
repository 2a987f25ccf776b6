"""Dense matrix kernel and density-operator algebra.

A density operator is a Hermitian, positive semidefinite, unit-trace complex
matrix. This module owns the numerical contracts everything else leans on:
validation against configurable tolerances and the (Uhlmann) fidelity

    F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,

the squared convention, so F coincides with |<psi|phi>|^2 on pure states
(see Nielsen & Chuang ch. 9 for the unsquared variant).

Positivity is certified, not measured: validation factors rho + tol.psd I
by Cholesky, and an eigensolver runs only to name a failure. So no
eigenvalue is computed for a state that passes; the smallest eigenvalue a
run can report for its valid states is the certified margin,
lambda_min >= -tol.psd. The fidelity, too, starts from a Cholesky factor
(sigma = L L^dag, so F = (sum sqrt(lambda(L^dag rho L)))^2; Jozsa, J. Mod.
Opt. 41, 1994), with one eigvalsh per pair.

All arrays handed out are read-only; constructed operators are immutable and
safe to share across trajectory workers.

A ``DensityOperator`` is always complex128. The stacked kernels the block
engine runs (``_validated``, ``_fidelities``, ``_real_divide``) take the
dtype of their input: float64 for the states of a real model (real Kraus
factors, real initial states; a real symmetric matrix is Hermitian), which
runs real gemms and factorizations, and complex128 otherwise.
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
        self.matrix.flags.writeable = False

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a matrix that ``_validated`` wrote, unchecked, and make it
        read-only; the engine passes copies of its buffers, never views."""
        matrix.flags.writeable = False
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


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """x's real part (a view) if x is complex with an exactly zero imaginary
    part, else x."""
    return x.real if np.iscomplexobj(x) and not x.imag.any() else x


def _real_divide(x: np.ndarray, t, out=None) -> np.ndarray:
    """x / t for real or complex x and real t > 0 (a scalar, or one per matrix of x).

    Multiplies by 1/t, which for complex x is 1/t - 0j: that rounds, and
    signs zeros, as numpy's complex division by t + 0j does, at a third of
    the cost (bar underflow to zero). For real x it is 1/t, and the product
    is the real part of x * (1/t - 0j) but for the sign of a zero.
    """
    if np.ndim(t):
        r = np.reciprocal(t + 0j if np.iscomplexobj(x) else t)[..., None, None]
    else:
        r = complex(1.0 / t, -0.0) if np.iscomplexobj(x) else 1.0 / t
    return np.multiply(x, r, out=out)


def _validated(m: np.ndarray, tol: Tolerances, out=None, scratch=None) -> np.ndarray:
    """Check a matrix or a stack (..., d, d) of them as density operators.

    Finite entries (checked first), Hermiticity, unit trace and PSD within
    ``tol``; the first failing matrix in C order raises. PSD is certified by
    one stacked Cholesky factorization of m + tol.psd I, which succeeds iff
    lambda_min >= -tol.psd, up to its backward error of about d * eps * ||m||
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). Only
    when it fails does an eigvalsh run, to name the first failing matrix and
    its smallest eigenvalue, so a passing stack yields no eigenvalue: its
    smallest one is known only to be at least -tol.psd. Returns the
    symmetrized (m + m^dag)/2, trace-renormalized stack, in ``out`` (must
    not overlap m) with m^dag in ``scratch``, or new arrays.
    """
    mt = np.conjugate(m.swapaxes(-1, -2), out=scratch)
    with np.errstate(invalid="ignore"):
        work = np.subtract(m, mt, out=out)
    # NaN-aware: a NaN or Inf entry makes its entry of m - m^dag non-finite.
    if m.size and not np.abs(work).max() <= tol.herm:
        if not np.isfinite(m).all():
            raise ValidationError("matrix contains NaN or Inf entries")
        dev_h = np.abs(work).max(axis=(-2, -1))
        raise NonHermitianError(dev_h[dev_h > tol.herm].flat[0], tol.herm)
    clean = _real_divide(np.add(m, mt, out=work), 2.0, out=work)
    # clean has m's real diagonal, so this is also clean's trace
    tr = m.trace(axis1=-2, axis2=-1)
    dev = np.maximum(np.abs(tr.real - 1.0), np.abs(tr.imag))
    if dev.max() > tol.trace:
        raise TraceDeviationError(tr.real[dev > tol.trace].flat[0] - 1.0, tol.trace)
    try:
        np.linalg.cholesky(np.add(clean, tol.psd * np.eye(m.shape[-1]), out=mt))
    except np.linalg.LinAlgError:
        lam_min = np.linalg.eigvalsh(clean)[..., 0]
        if lam_min.min() < -tol.psd:
            raise NegativeEigenvalueError(
                lam_min[lam_min < -tol.psd].flat[0], tol.psd
            ) from None
    return _real_divide(clean, tr.real, out=clean)


def _sqrt_psd(hermitian: np.ndarray, work=(None, None)) -> Tuple[np.ndarray, np.ndarray]:
    """Square root of an already-validated Hermitian PSD matrix (or stack).

    Eigenvalues at or below d * eps * lambda_max are eigensolver noise on an
    exact zero and are dropped. Returns the root (in work[0], with work[1]
    as scratch, when given) and lambda_max.
    """
    root_out, vh = work
    w, v = np.linalg.eigh(hermitian)
    lam_max = w[..., -1]
    cut = w.shape[-1] * _EPS * lam_max
    root = np.sqrt(np.where(w > cut[..., None], w, 0.0))
    # v^dag keeps the memory layout of v.swapaxes(-1, -2).conj()
    vh = np.conjugate(v, out=vh).swapaxes(-1, -2)
    root_v = np.multiply(v, root[..., None, :], out=v)
    return np.matmul(root_v, vh, out=root_out), lam_max


def _inf_norm(m: np.ndarray) -> np.ndarray:
    """The largest absolute row sum of each matrix, >= its spectral norm."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def _root_sum_squared(w: np.ndarray, cut) -> np.ndarray:
    """(sum of sqrt(w) over w above cut)^2 per row of eigenvalues, at most 1."""
    root_sum = np.sqrt(np.where(w > cut, w, 0.0)).sum(axis=-1)
    return np.minimum(root_sum * root_sum, 1.0)


def _fidelities(rho: np.ndarray, sigma: np.ndarray, work=(None, None)) -> np.ndarray:
    """``fidelity`` of each pair of matching matrices in two stacks (..., d, d).

    Factors the sigma stack, sigma = L L^dag (one stacked Cholesky), and
    takes the eigenvalues of L^dag rho L, which is similar to rho sigma; if
    a matrix of sigma is singular, it factors the rho stack instead. Only
    when each stack holds a singular matrix does it square-root rho with
    eigh and take the eigenvalues of sqrt(rho) sigma sqrt(rho).
    work: two scratch stacks like rho (default: new arrays)."""
    d = rho.shape[-1]
    for factored, other in ((sigma, rho), (rho, sigma)):
        try:
            low = np.linalg.cholesky(factored)
        except np.linalg.LinAlgError:
            continue
        # L^dag (other L); eigvalsh reads its lower triangle.
        inner = np.matmul(other, low, out=work[0])
        inner = np.matmul(np.conjugate(low.swapaxes(-1, -2)), inner, out=work[1])
        cut = d * _EPS * _inf_norm(rho) * _inf_norm(sigma)
        return _root_sum_squared(np.linalg.eigvalsh(inner), cut[..., None])
    s, lam_max = _sqrt_psd(rho, work)
    inner = np.matmul(np.matmul(s, sigma, out=work[1]), s)
    sym = np.add(inner, np.conjugate(inner.swapaxes(-1, -2), out=work[1]), out=work[1])
    w = np.linalg.eigvalsh(_real_divide(sym, 2.0, out=sym))
    cut = d * _EPS * lam_max * _inf_norm(sigma)
    return _root_sum_squared(w, cut[..., None])


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity (squared convention), clamped into [0, 1].

    Computed as the squared sum of the eigenvalue square roots of L^dag rho
    L, with sigma = L L^dag by Cholesky (or rho's factor, with the roles
    swapped, when sigma is singular). Eigenvalues at or below d * eps *
    ||rho||_inf * ||sigma||_inf, the backward error of forming that product,
    are rounding noise on an exact zero (rank-deficient inputs) and are
    dropped: the square root would otherwise amplify O(1e-17) noise into
    O(1e-9) fidelity error. When neither state factors, the same cut (with
    lambda_max(rho) for ||rho||_inf) applies to the eigenvalues of
    sqrt(rho) sigma sqrt(rho), sqrt(rho) by eigh.

    When one state is singular both argument orders factor the other, so
    the result is symmetric; over 1,000 ``inequality`` suite instances the
    two orders differ by at most 6e-14. Near-pure states make F sensitive to
    the square roots of their rounding-level eigenvalues: on near-pure
    photon-box pairs, results are within about 2e-8 of a 40-digit evaluation
    of the same float64 matrices, as the eigh form alone was.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"fidelity needs equal dimensions, got {rho.dim} and {sigma.dim}"
        )
    return float(_fidelities(rho.matrix, sigma.matrix))

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

What depends only on the inner stack (and a detection-error matrix eta) is
computed once and shared: the inner products conj(a_j) a_j^T of ``_effects``
and eta's factorization against the inner stack (``_factor_rows``) are
cached on the bytes of their inputs, so every family with that inner stack
(the photon box at each drive amplitude) holds the same read-only arrays.
Only the outer stack, its Gram and its per-k products B_k^dag B_k are built
per family.

The factors are stored as float64 when their imaginary parts are exactly
zero (the photon box at a real drive amplitude), else as complex128, and
the step kernels take the dtype of the factors and the states: a real
model runs real gemms. The dense ``operators``, ``weighted_image`` and
``apply_jump`` stay complex128.

Approximately complete families (deficit up to a declared tolerance) are
accepted; probability vectors are then renormalized. This accommodates
physically truncated models whose completeness holds only to second order
in a small decoherence parameter.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .density import (
    DEFAULT_TOLERANCES,
    DensityOperator,
    Tolerances,
    _real_divide,
    _real_if_exact,
)
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


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


class KrausFamily:
    """Ordered set of same-dimension Kraus operators with completeness check.

    Labels are human-readable metadata only; all math indexes by position.
    ``KrausFamily(operators)`` is an unfactored family; ``_factored`` builds
    one from its inner diagonals and outer stack. A factor whose imaginary
    part is exactly zero is stored as float64; ``operators`` is complex128.

    A measured completeness tolerance (``_factored`` with none declared)
    is formed from the factors on the first read of
    ``completeness_tolerance``, an eigvalsh of the defect. Until then the
    family holds one float, a lower bound on it, which settles every
    probability check whose deviation lies below it.
    """

    __slots__ = (
        "labels",
        "_tolerance",
        "_tolerance_floor",
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
        self._set_factors(ones, ops, float(completeness_tolerance), labels)

    @classmethod
    def _factored(cls, inner, outer, tolerance=None, labels=None) -> "KrausFamily":
        """The family M_(j*K + k) = outer[k] @ diag(inner[j]), stored as its factors.

        With no ``tolerance``, the tolerance is the measured defect: the
        spectral norm of sum_q M_q^dag M_q - I, times (1 + 1e-9), plus 1e-14.
        It is formed from the stored factors on the first read of
        ``completeness_tolerance``; until then the family keeps only a lower
        bound on it, from the defect's largest entry.
        """
        family = cls.__new__(cls)
        family._set_factors(inner, outer, tolerance, labels)
        return family

    def _defect(self) -> np.ndarray:
        """sum_q M_q^dag M_q - I = (sum_j conj(a_j) a_j^T) o (sum_k B_k^dag B_k) - I."""
        inner, flat = self._inner, self._flat
        return (inner.conj().T @ inner) * (flat.conj().T @ flat) - np.eye(self.dim)

    def _set_factors(self, inner, outer, tol, labels) -> None:
        (j, d), k = inner.shape, len(outer)
        if labels is not None and len(labels) != j * k:
            raise ValidationError(f"{len(labels)} labels for {j * k} operators")
        if tol is not None and not 0.0 <= tol < math.inf:
            raise ValidationError(
                f"completeness_tolerance must be finite and >= 0, got {tol!r}"
            )
        # Read-only, contiguous (K*d, d) layouts so per-step algebra is two gemms;
        # real when exactly real, so a real model runs real gemms.
        inner = np.ascontiguousarray(_real_if_exact(np.asarray(inner)))
        outer = np.ascontiguousarray(_real_if_exact(np.asarray(outer)))
        adjoints = outer.conj().transpose(0, 2, 1).reshape(k * d, d)
        _read_only(inner, outer, adjoints)
        self._inner, self._flat = inner, outer.reshape(k * d, d)
        self._adjoints_flat = adjoints
        deviation = float(np.abs(self._defect()).max())
        if tol is None:
            # |D_ij| <= ||D||_2, less eigvalsh's relative backward error (far
            # below 1e-12), so this never exceeds the measured tolerance.
            floor = deviation * (1.0 - 1e-12) * (1.0 + 1e-9) + 1e-14
        elif deviation > tol:
            raise CompletenessViolationError(deviation, tol)
        else:
            floor = tol = float(tol)
        self.labels = tuple(labels) if labels is not None else None
        self._tolerance, self._tolerance_floor = tol, floor

    @property
    def completeness_tolerance(self) -> float:
        """The declared tolerance, or the measured one, formed on first read."""
        if self._tolerance is None:
            defect = float(np.abs(np.linalg.eigvalsh(self._defect())).max())
            self._tolerance = defect * (1.0 + 1e-9) + 1e-14
        return self._tolerance

    @property
    def operators(self) -> np.ndarray:
        """The dense complex stack (m, d, d); a factored or real family builds
        it on each call."""
        d = self.dim
        dense = self._flat.reshape(-1, d, d)
        if not (len(self._inner) == 1 and (self._inner == 1).all()):
            dense = (dense[None] * self._inner[:, None, None, :]).reshape(-1, d, d)
        return dense.astype(np.complex128, copy=False)

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


def _workspace(family: KrausFamily, n: int, work=None, dtype=np.complex128) -> np.ndarray:
    """``work`` if it is of ``dtype`` and holds the (2K + 1) N d^2 entries of
    ``_weighted_images`` of n states (W o x, the images and their
    rearrangement), else a new buffer."""
    size = (2 * len(family._flat) + family.dim) * n * family.dim
    if work is not None and work.size >= size and work.dtype == dtype:
        return work
    return np.empty(size, dtype)


def _weighted_images(
    family: KrausFamily, weights, hadamard, stack, out, work
) -> np.ndarray:
    """out[n] = sum_k weights[n, k] B_k (W_n o x_n) B_k^dag, for x and W (N, d, d).

    Two gemms in ``work`` (``_workspace``): the images B_k x'_n of x'_n = W_n o x_n
    side by side, (K*d, d) @ (d, N*d), then their weighted rearrangement
    (N*d, K*d) @ (K*d, d). For an unfactored family B = M."""
    n, d = stack.shape[:2]
    k = len(family._flat) // d
    size = n * d * d
    x, images = work[:size], work[size : (k + 1) * size]
    weighted = work[(k + 1) * size : (2 * k + 1) * size]
    np.multiply(hadamard, stack, out=x.reshape(d, n, d).transpose(1, 0, 2))
    np.matmul(family._flat, x.reshape(d, n * d), out=images.reshape(k * d, n * d))
    per_state = images.reshape(k, d, n, d).transpose(2, 1, 0, 3)  # (N, d, K, d)
    np.multiply(per_state, weights[:, None, :, None], out=weighted.reshape(n, d, k, d))
    flat_out = out.reshape(n * d, d)  # a view: out is contiguous
    return np.matmul(weighted.reshape(n * d, k * d), family._adjoints_flat, out=flat_out)


def _key(array: np.ndarray) -> Tuple[str, Tuple[int, ...], bytes]:
    """A hashable key that determines the array: dtype, shape and bytes."""
    return array.dtype.str, array.shape, array.tobytes()


def _from_key(key: Tuple[str, Tuple[int, ...], bytes]) -> np.ndarray:
    """The read-only array a ``_key`` describes."""
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


@functools.lru_cache(maxsize=32)
def _inner_products(inner_key) -> np.ndarray:
    """P_j = conj(a_j) a_j^T (J, d, d), shared by every family with inner a."""
    a = _from_key(inner_key)
    products = a.conj()[:, :, None] * a[:, None, :]
    _read_only(products)
    return products


@functools.lru_cache(maxsize=32)
def _row_factors(inner_key, eta_key) -> Tuple[bool, np.ndarray, np.ndarray]:
    """(separable, W, v) of ``_factor_rows``, shared per (inner stack, eta)."""
    a, eta = _from_key(inner_key), _from_key(eta_key)
    (j, d), rows = a.shape, eta.reshape(len(eta), len(a), -1)
    separable = j > 1 and bool((rows == rows[:, :, :1]).all())
    if separable:
        u, v = rows[:, :, 0], np.ones(rows.shape[::2])
    else:
        if j > 1:  # the unfactored family, whose one inner diagonal is 1
            a = np.ones((1, d))
        u, v = np.ones((len(eta), 1)), eta
    hadamard = u @ (a[:, :, None] * a.conj()[:, None, :]).reshape(len(a), -1)
    hadamard = hadamard.reshape(-1, d, d)
    _read_only(hadamard, v)
    return separable, hadamard, v


def _factor_rows(
    family: KrausFamily, eta: np.ndarray
) -> Tuple[KrausFamily, np.ndarray, np.ndarray]:
    """(outer, W, v) with sum_q eta[p, q] M_q x M_q^dag = sum_k v[p, k] B_k x_p B_k^dag.

    Here x_p = W_p o x. If eta[p, j*K + k] does not depend on k (the detector
    sees only the inner jump), outer is the family, W_p = sum_j eta[p, j*K]
    a_j a_j^dag and v = 1; else outer is the unfactored family, W_p = 1, v = eta.

    W, v and the separability test depend only on the inner stack and eta:
    they are computed once per (inner stack, eta) and shared, read-only, by
    every family with that inner stack. Only the dense fallback (a
    non-separable eta on a factored family) is built per family.
    """
    separable, hadamard, v = _row_factors(_key(family._inner), _key(eta))
    if not separable and len(family._inner) > 1:
        tol = family.completeness_tolerance
        family = KrausFamily(family.operators, completeness_tolerance=tol)
    return family, hadamard, v


def weighted_image(
    family: KrausFamily, weights: np.ndarray, rho_matrix: np.ndarray
) -> np.ndarray:
    """sum_q weights[q] M_q rho M_q^dag as two gemms over the outer stack."""
    outer, hadamard, v = _factor_rows(family, np.reshape(weights, (1, -1)))
    out, work = np.empty_like(rho_matrix, dtype=complex), _workspace(outer, 1)
    return _weighted_images(outer, v, hadamard, rho_matrix[None], out[None], work)


def _effects(family: KrausFamily) -> np.ndarray:
    """The effects E_(j,k) = P_j o B_k^dag B_k, stacked (m, d, d).

    P_j = conj(a_j) a_j^T are the shared ``_inner_products``; only the K
    Grams B_k^dag B_k (one batched product) are formed per family.
    """
    d = family.dim
    gram = family._adjoints_flat.reshape(-1, d, d) @ family._flat.reshape(-1, d, d)
    products = _inner_products(_key(family._inner))
    return (products[:, None] * gram).reshape(-1, d, d)


def _traces(effects: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tr(M_q rho_n M_q^dag) = tr(E_q rho_n) for a stack (..., d, d), as (N, m)."""
    m, d = effects.shape[:2]
    return (stack.reshape(-1, d * d).conj() @ effects.reshape(m, d * d).T).real


def raw_jump_probabilities(family: KrausFamily, rho: DensityOperator) -> np.ndarray:
    """tr(M_q rho M_q^dag) per q, with no clamping or renormalization."""
    _check_dim(family, rho)
    return _traces(_effects(family), rho.matrix)[0]


def _clamp_and_renormalize(probs: np.ndarray, family: KrausFamily) -> np.ndarray:
    """Clamp and renormalize a probability vector, or each row of a stack.

    A row whose sum is off 1 by more than the family's completeness tolerance
    (plus 1e-12) raises; the tolerance itself is read only for a deviation
    above the family's lower bound on it.
    """
    deviation = probs.sum(axis=-1) - 1.0
    if np.abs(deviation).max() > family._tolerance_floor + 1e-12:
        tolerance = family.completeness_tolerance
        excess = np.abs(deviation) > tolerance + 1e-12
        if excess.any():
            raise ProbabilityDeficitError(float(deviation[excess].flat[0]), tolerance)
    lowest = float(probs.min())
    if lowest < -PROB_FLOOR:
        raise ValidationError(
            f"probability component {lowest:.3e} below -{PROB_FLOOR:.0e}; "
            "input state is likely not PSD"
        )
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def _jumps(family: KrausFamily, q, stack, out, scratch) -> np.ndarray:
    """M_q[n] rho_n M_q[n]^dag / tr(...) for a stack (N, d, d) and jumps q (N,).

    With q = j*K + k, the image is B_k ((a_j a_j^dag) o rho_n) B_k^dag.
    Raises ZeroProbabilityJumpError for the first jump whose trace is at or
    below PROB_FLOOR. Writes to ``out``, with ``scratch`` (N, d, d) for B_k x.
    """
    d = family.dim
    j, k = np.divmod(q, family._flat.shape[0] // d)
    a = family._inner[j]
    np.multiply(a[:, :, None], a.conj()[:, None, :], out=out)
    x = np.multiply(stack, out, out=out)
    np.matmul(family._flat.reshape(-1, d, d)[k], x, out=scratch)
    jumped = np.matmul(scratch, family._adjoints_flat.reshape(-1, d, d)[k], out=out)
    prob = jumped.trace(axis1=1, axis2=2).real
    low = prob <= PROB_FLOOR
    if low.any():
        i = int(low.argmax())
        raise ZeroProbabilityJumpError(
            f"jump {q[i]} has probability {prob[i]:.3e} <= {PROB_FLOOR:.0e}"
        )
    return _real_divide(jumped, prob, out=out)


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
    work = np.empty((2, 1, family.dim, family.dim), dtype=np.complex128)
    jumped = _jumps(family, np.array([q]), rho.matrix[None], work[0], work[1])
    return DensityOperator(jumped[0], tolerances)

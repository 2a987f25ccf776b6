"""Exception and warning types shared across the package.

Every failure mode carries the offending quantity in its message and, where
useful, as attributes, so callers can report diagnostics without string
parsing.
"""

from __future__ import annotations


class QFilterError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QFilterError, ValueError):
    """A value failed a structural or numerical invariant."""


class _ToleranceError(QFilterError):
    """A measured ``deviation`` exceeded its ``tolerance``; each subclass
    words the message through its ``template``."""

    template: str

    def __init__(self, deviation: float, tolerance: float):
        self.deviation = float(deviation)
        self.tolerance = float(tolerance)
        super().__init__(
            self.template.format(deviation=deviation, tolerance=tolerance)
        )


class NonHermitianError(_ToleranceError, ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""

    template = (
        "matrix is not Hermitian: max |M - M^dag| = {deviation:.3e} "
        "exceeds tolerance {tolerance:.3e}"
    )


class TraceDeviationError(_ToleranceError, ValidationError):
    """Trace differs from 1 beyond tolerance."""

    template = "trace deviates from 1 by {deviation:.3e} (tolerance {tolerance:.3e})"


class NegativeEigenvalueError(_ToleranceError, ValidationError):
    """Smallest eigenvalue is below the allowed negative tolerance."""

    template = "matrix has negative eigenvalue {deviation:.3e} below -{tolerance:.3e}"


class DimensionMismatchError(QFilterError, ValueError):
    """Operands have incompatible dimensions."""


class IndexOutOfRangeError(QFilterError, IndexError):
    """An outcome or jump index is outside its declared range."""


class ZeroProbabilityJumpError(QFilterError, ValueError):
    """Requested jump has probability at or below the probability floor."""


class ProbabilityDeficitError(_ToleranceError, ValueError):
    """Probability vector fails to sum to 1 within the family's tolerance."""

    template = (
        "probabilities sum to 1 {deviation:+.3e} "
        "(allowed deviation {tolerance:.3e})"
    )


class NegativeEntryError(ValidationError):
    """A probability matrix entry is negative."""

    def __init__(self, row: int, col: int, value: float):
        self.row = int(row)
        self.col = int(col)
        self.value = float(value)
        super().__init__(
            f"negative entry {value:.3e} at (row={row}, col={col})"
        )


class ColumnSumDeviationError(ValidationError):
    """A column of a left-stochastic matrix does not sum to 1."""

    def __init__(self, col: int, deviation: float, tolerance: float):
        self.col = int(col)
        self.deviation = float(deviation)
        self.tolerance = float(tolerance)
        super().__init__(
            f"column {col} sums to 1 {deviation:+.3e} "
            f"(tolerance {tolerance:.3e})"
        )


class CombinatorialExplosionError(QFilterError, ValueError):
    """Exhaustive enumeration would exceed the configured guard."""

    def __init__(self, n_sequences: int, guard: int, max_feasible_k: int):
        self.n_sequences = int(n_sequences)
        self.guard = int(guard)
        self.max_feasible_k = int(max_feasible_k)
        super().__init__(
            f"enumeration of {n_sequences} jump sequences exceeds guard "
            f"{guard}; at this branching factor at most k={max_feasible_k} "
            f"steps are feasible"
        )


class ZeroEvidenceError(QFilterError, ValueError):
    """The observed outcome sequence has probability (at or below floor) zero."""


class BadPartitionError(QFilterError, ValueError):
    """Index partition is not a disjoint cover of the operator list."""


class CompletenessViolationError(_ToleranceError, ValidationError):
    """Operator family's sum of M^dag M deviates from identity beyond tolerance."""

    template = (
        "sum of M^dag M deviates from identity by {deviation:.3e} "
        "(tolerance {tolerance:.3e})"
    )


class EnsembleTooSmallError(QFilterError, ValueError):
    """Too few trajectories for a meaningful ensemble statistic."""


class SubmartingaleViolationError(QFilterError, AssertionError):
    """Exact one-step conditional expectation fell below the current fidelity."""

    def __init__(self, lhs: float, rhs: float, tolerance: float):
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.tolerance = float(tolerance)
        super().__init__(
            f"one-step expected fidelity {rhs:.12e} is below current "
            f"fidelity {lhs:.12e} by more than {tolerance:.1e}"
        )


class ConfigError(QFilterError, ValueError):
    """Experiment configuration failed schema validation or is inconsistent."""


class RegularizationWarning(UserWarning):
    """Shrinking-epsilon regularization did not stabilize across the ladder."""


class TruncationWarning(UserWarning):
    """Operation likely pushes significant amplitude above the photon cutoff."""

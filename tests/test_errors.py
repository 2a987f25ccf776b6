import numpy as np
import pytest

from qfilter.errors import (
    CompletenessViolationError,
    NegativeEigenvalueError,
    NonHermitianError,
    ProbabilityDeficitError,
    QFilterError,
    TraceDeviationError,
    ValidationError,
)


@pytest.mark.parametrize(
    "cls, is_validation, message",
    [
        (
            NonHermitianError,
            True,
            "matrix is not Hermitian: max |M - M^dag| = 2.500e-03 "
            "exceeds tolerance 1.000e-09",
        ),
        (
            TraceDeviationError,
            True,
            "trace deviates from 1 by 2.500e-03 (tolerance 1.000e-09)",
        ),
        (
            ProbabilityDeficitError,
            False,
            "probabilities sum to 1 +2.500e-03 (allowed deviation 1.000e-09)",
        ),
        (
            CompletenessViolationError,
            True,
            "sum of M^dag M deviates from identity by 2.500e-03 "
            "(tolerance 1.000e-09)",
        ),
        (
            NegativeEigenvalueError,
            True,
            "matrix has negative eigenvalue 2.500e-03 below -1.000e-09",
        ),
    ],
)
def test_tolerance_errors_keep_bases_attributes_and_message(cls, is_validation, message):
    err = cls(np.float64(2.5e-3), 1e-9)
    assert isinstance(err, QFilterError)
    assert isinstance(err, ValueError)
    assert isinstance(err, ValidationError) is is_validation
    assert type(err.deviation) is float and err.deviation == 2.5e-3
    assert type(err.tolerance) is float and err.tolerance == 1e-9
    assert str(err) == message

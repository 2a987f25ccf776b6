"""Discrete-time quantum trajectory filtering under imperfect detection.

Library layout:

- ``density``: density-operator algebra (validation, fidelity)
- ``kraus``: Kraus families, jump probabilities, conditional updates
- ``errormodel``: left-stochastic detector error matrices and outcome sampling
- ``filtering``: the optimal recursive filter and its degenerate-case limit
- ``oracle``: brute-force Bayes expansion certifying the recursion
- ``simulate``: Monte Carlo co-evolution of truth, detector, and filters
- ``photonbox``: cavity QND photon-counting model with the 6 x 21 error matrix
- ``stability``: one-step fidelity submartingale (the channel inequality is
  its 0/1-detector case) and ensemble checks, run by the simulator's update
- ``config``/``serialize``: experiment configs and file formats
- ``cli``: command-line front end (filter / simulate / verify / photonbox-export)
"""

from .density import (
    DEFAULT_TOLERANCES,
    DensityOperator,
    Tolerances,
    fidelity,
)
from .errormodel import ErrorModel
from .filtering import (
    FilterState,
    MeasurementStep,
    filter_update,
    outcome_probabilities,
    run_filter,
)
from .kraus import KrausFamily, PROB_FLOOR, apply_jump
from .oracle import direct_estimate, marginal_evidence, sequence_posterior
from .photonbox import (
    PhotonBoxParams,
    composite_kraus,
    detection_error_model,
    displacement,
    fock_operators,
    l_operators,
)
from .simulate import (
    TrajectoryConfig,
    TrajectoryRecord,
    run_ensemble,
    run_trajectory,
    step_truth,
)
from .stability import (
    check_fidelity_inequality,
    ensemble_submartingale,
    exact_one_step_submartingale,
)
from . import errors

__all__ = [
    "DEFAULT_TOLERANCES",
    "DensityOperator",
    "Tolerances",
    "fidelity",
    "ErrorModel",
    "FilterState",
    "MeasurementStep",
    "filter_update",
    "outcome_probabilities",
    "run_filter",
    "KrausFamily",
    "PROB_FLOOR",
    "apply_jump",
    "direct_estimate",
    "marginal_evidence",
    "sequence_posterior",
    "PhotonBoxParams",
    "composite_kraus",
    "detection_error_model",
    "displacement",
    "fock_operators",
    "l_operators",
    "TrajectoryConfig",
    "TrajectoryRecord",
    "run_ensemble",
    "run_trajectory",
    "step_truth",
    "check_fidelity_inequality",
    "ensemble_submartingale",
    "exact_one_step_submartingale",
    "errors",
]

__version__ = "0.1.0"

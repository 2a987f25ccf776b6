"""Monte Carlo co-evolution of true state, noisy detector, and filters.

Each step: the ideal jump q is sampled from the true state's jump
probabilities and applied to it; the detector reading p is then drawn from
column q of the step's error matrix; finally every configured filter
consumes the same p. Per-trajectory generators are spawned from the base
seed with numpy's SeedSequence, so ensembles are bit-exactly reproducible
and trivially parallelizable (the runner here stays sequential to keep
output byte-identical unconditionally).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .density import DEFAULT_TOLERANCES, DensityOperator, Tolerances, fidelity
from .errormodel import inverse_cdf_index, sample_real_outcome
from .errors import DimensionMismatchError, ValidationError
from .filtering import FilterState, MeasurementStep, filter_update, outcome_probabilities
from .kraus import apply_jump, jump_probabilities

__all__ = [
    "StepProvider",
    "TrajectoryConfig",
    "TrajectoryRecord",
    "step_truth",
    "run_trajectory",
    "run_ensemble",
]

# Either a fixed step, a per-step list, or a feedback callback receiving
# (step_index, current estimate of the first configured filter).
StepProvider = Union[
    MeasurementStep,
    Sequence[MeasurementStep],
    Callable[[int, DensityOperator], MeasurementStep],
]


@dataclass(frozen=True)
class TrajectoryConfig:
    """Inputs for one trajectory (or the template for an ensemble).

    ``filter_initials`` maps filter names to their initial estimates; a
    filter starting at ``true_initial`` plays the role of the optimal
    estimator. ``fidelity_pairs`` names filter pairs whose fidelity series
    is recorded (index 0 = between initials, index k = after k updates).
    """

    true_initial: DensityOperator
    filter_initials: Mapping[str, DensityOperator]
    steps: StepProvider
    horizon: int
    seed: Union[int, np.random.SeedSequence] = 0
    fidelity_pairs: Tuple[Tuple[str, str], ...] = ()
    store_states: bool = False
    record_predictions: bool = False
    tolerances: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if not self.filter_initials:
            raise ValidationError("at least one filter initial is required")
        d = self.true_initial.dim
        for name, rho in self.filter_initials.items():
            if rho.dim != d:
                raise DimensionMismatchError(
                    f"filter {name!r} has dimension {rho.dim}, true state has {d}"
                )
        names = set(self.filter_initials)
        for pair in self.fidelity_pairs:
            for name in pair:
                if name not in names:
                    raise ValidationError(f"fidelity pair names unknown filter {name!r}")
        if isinstance(self.steps, Sequence) and len(self.steps) < self.horizon:
            raise ValidationError(
                f"{len(self.steps)} steps provided for horizon {self.horizon}"
            )


@dataclass(frozen=True)
class TrajectoryRecord:
    """Everything recorded along one trajectory.

    Fidelity series have length horizon + 1 (initial value first). States
    are stored only when the config asked for them; ``flagged_steps`` lists
    (step index, filter name) pairs where an update needed the
    shrinking-epsilon branch.
    """

    ideal_outcomes: np.ndarray
    real_outcomes: np.ndarray
    fidelities: Mapping[Tuple[str, str], np.ndarray]
    filter_names: Tuple[str, ...]
    true_initial: DensityOperator
    filter_initials: Mapping[str, DensityOperator]
    steps: Tuple[MeasurementStep, ...]
    truth_matched_filter: Optional[str]
    true_states: Optional[Tuple[DensityOperator, ...]] = None
    filter_states: Optional[Mapping[str, Tuple[DensityOperator, ...]]] = None
    predicted_probabilities: Optional[Mapping[str, np.ndarray]] = None
    flagged_steps: Tuple[Tuple[int, str], ...] = ()

    @property
    def horizon(self) -> int:
        return len(self.real_outcomes)


def step_truth(
    rho_true: DensityOperator,
    step: MeasurementStep,
    rng: np.random.Generator,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Tuple[int, int, DensityOperator]:
    """Advance the true state by one measurement and detection.

    Draws the ideal jump q first and the detector reading p second, each
    consuming one uniform, so trajectories are reproducible under a fixed
    generator state.
    """
    probs = jump_probabilities(step.family, rho_true)
    q = inverse_cdf_index(probs, rng.random())
    rho_next = apply_jump(step.family, q, rho_true, tolerances)
    p = sample_real_outcome(step.errors, q, rng)
    return q, p, rho_next


def _resolve_step(
    provider: StepProvider, k: int, feedback_estimate: DensityOperator
) -> MeasurementStep:
    if isinstance(provider, MeasurementStep):
        return provider
    if callable(provider):
        return provider(k, feedback_estimate)
    return provider[k - 1]


def _find_truth_matched(
    true_initial: DensityOperator, filter_initials: Mapping[str, DensityOperator]
) -> Optional[str]:
    for name, rho in filter_initials.items():
        if np.abs(rho.matrix - true_initial.matrix).max() <= 1e-12:
            return name
    return None


def run_trajectory(config: TrajectoryConfig) -> TrajectoryRecord:
    """Simulate one trajectory: truth, detector, and all configured filters."""
    rng = np.random.default_rng(config.seed)
    names = tuple(config.filter_initials)
    feedback_name = names[0]

    filters: Dict[str, FilterState] = {
        name: FilterState(estimate=rho)
        for name, rho in config.filter_initials.items()
    }
    rho_true = config.true_initial

    fid_series: Dict[Tuple[str, str], List[float]] = {
        pair: [
            fidelity(
                config.filter_initials[pair[0]], config.filter_initials[pair[1]]
            )
        ]
        for pair in config.fidelity_pairs
    }

    ideal: List[int] = []
    real: List[int] = []
    used_steps: List[MeasurementStep] = []
    flagged: List[Tuple[int, str]] = []
    true_states: Optional[List[DensityOperator]] = [] if config.store_states else None
    filter_states: Optional[Dict[str, List[DensityOperator]]] = (
        {name: [] for name in names} if config.store_states else None
    )
    predictions: Optional[Dict[str, List[np.ndarray]]] = (
        {name: [] for name in names} if config.record_predictions else None
    )

    for k in range(1, config.horizon + 1):
        step = _resolve_step(config.steps, k, filters[feedback_name].estimate)
        used_steps.append(step)

        if predictions is not None:
            for name in names:
                predictions[name].append(outcome_probabilities(filters[name], step))

        q, p, rho_true = step_truth(rho_true, step, rng, config.tolerances)
        ideal.append(q)
        real.append(p)

        for name in names:
            updated = filter_update(filters[name], step, p, config.tolerances)
            if updated.regularized:
                flagged.append((k, name))
            filters[name] = updated

        for pair in config.fidelity_pairs:
            fid_series[pair].append(
                fidelity(filters[pair[0]].estimate, filters[pair[1]].estimate)
            )

        if true_states is not None:
            true_states.append(rho_true)
            for name in names:
                filter_states[name].append(filters[name].estimate)

    return TrajectoryRecord(
        ideal_outcomes=np.asarray(ideal, dtype=np.int64),
        real_outcomes=np.asarray(real, dtype=np.int64),
        fidelities={
            pair: np.asarray(series, dtype=np.float64)
            for pair, series in fid_series.items()
        },
        filter_names=names,
        true_initial=config.true_initial,
        filter_initials=dict(config.filter_initials),
        steps=tuple(used_steps),
        truth_matched_filter=_find_truth_matched(
            config.true_initial, config.filter_initials
        ),
        true_states=tuple(true_states) if true_states is not None else None,
        filter_states=(
            {name: tuple(states) for name, states in filter_states.items()}
            if filter_states is not None
            else None
        ),
        predicted_probabilities=(
            {name: np.asarray(rows) for name, rows in predictions.items()}
            if predictions is not None
            else None
        ),
        flagged_steps=tuple(flagged),
    )


def run_ensemble(
    config: TrajectoryConfig, n_traj: int, base_seed: int
) -> List[TrajectoryRecord]:
    """Run n_traj independent trajectories with derived per-trajectory seeds.

    Seeds come from SeedSequence(base_seed).spawn, numpy's splittable
    scheme: trajectory i always sees the same stream regardless of how many
    trajectories run, and two ensembles with the same base seed are
    bit-identical.
    """
    if n_traj < 1:
        raise ValidationError(f"n_traj must be >= 1, got {n_traj}")
    children = np.random.SeedSequence(base_seed).spawn(n_traj)
    return [
        run_trajectory(replace(config, seed=child)) for child in children
    ]

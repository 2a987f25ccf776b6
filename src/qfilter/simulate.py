"""Monte Carlo co-evolution of true state, noisy detector, and filters.

Each step: the ideal jump q is sampled from the true state's jump
probabilities and applied to it; the detector reading p is then drawn from
column q of the step's error matrix; finally every configured filter
consumes the same p. Per-trajectory generators are spawned from the base
seed with numpy's SeedSequence, so ensembles are bit-exactly reproducible.

One engine advances a block of trajectories together through each step:
the jump probabilities, the sampled jumps and each filter's update are a
few stacked gemms over the block, and every produced state is validated in
one stacked call. Each trajectory draws its uniforms from its own
generator in the serial order, so its outcome stream does not depend on
the block it runs in; its states and fidelities agree with a block of one
to rounding. A callable StepProvider (feedback) runs in blocks of one,
because each trajectory's next step depends on its own estimate.

The step works in place on buffers a block allocates once: three state
stacks (1 + F, N, d, d) for F filters (the states; what a step produces,
validated and symmetrized back into the states; scratch) and the filter
update's workspace, which grows if a feedback provider returns more outer
operators. Stored states and the estimate handed to a callable provider
outlive the step, so they are read-only complex128 copies, never views.

The buffers take the dtype of the data: float64 when the initial states and
the factors of every step are exactly real (the photon box at a real drive
amplitude), so the block runs real gemms and eigensolvers, else complex128.
Under a callable provider a block of real initial states starts real; the
first step with complex factors upcasts its buffers, once. Records, stored
states and the feedback estimate are complex128 either way.

Block size: a filter update forms the images B_k x_n of the block's N states
under the step's K outer operators and their weighted rearrangement, 32*K*d*d
bytes per trajectory in complex128 (half that in float64); a block holds
BLOCK_BYTES // (32*K*d*d) trajectories whatever its dtype (22 for the photon
box, K = 3 and d = 11), at least one. The complex buffers of such a block,
with two filters and the transposed input, hold about 0.68 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .density import (
    DEFAULT_TOLERANCES,
    DensityOperator,
    Tolerances,
    _fidelities,
    _real_divide,
    _real_if_exact,
    _validated,
)
from .errormodel import inverse_cdf_rows
from .errors import DimensionMismatchError, ValidationError
from .filtering import FilterState, MeasurementStep, filter_update
from .kraus import (
    PROB_FLOOR,
    _clamp_and_renormalize,
    _effects,
    _jumps,
    _traces,
    _weighted_images,
    _workspace,
)

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


def _check_seed(seed: Union[int, np.random.SeedSequence]) -> None:
    if not isinstance(seed, np.random.SeedSequence) and seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")


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
        _check_seed(self.seed)
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


# Byte budget of one block's Kraus images (see the module docstring).
BLOCK_BYTES = 1 << 18


def _fixed_steps(config: TrajectoryConfig) -> List[MeasurementStep]:
    """The steps of the horizon; none under a callable (feedback) provider."""
    provider = config.steps
    if isinstance(provider, MeasurementStep):
        return [provider]
    return [] if callable(provider) else list(provider[: config.horizon])


def _block_size(config: TrajectoryConfig) -> int:
    """Trajectories per block: one under a callable (feedback) provider."""
    steps = _fixed_steps(config)
    if not steps:
        return 1
    return max(1, BLOCK_BYTES // (32 * max(s._factors[0]._flat.size for s in steps)))


def _dtype(step: MeasurementStep) -> np.dtype:
    """float64 if the factors the truth and the filters run on are real."""
    outer, hadamard, _ = step._factors
    return np.result_type(step.family._inner, step.family._flat, outer._flat, hadamard)


def _advance_truth(
    step: MeasurementStep, effects, truth, uniforms, out, scratch
) -> Tuple[np.ndarray, np.ndarray]:
    """Jumps q and detector readings p of a stack of true states (N, d, d).

    uniforms (N, 2) holds each trajectory's draw for q, then for p. The
    jumped states M_q rho M_q^dag / tr(...) go to out (scratch: a stack like
    out), not yet validated.
    """
    family = step.family
    if family.dim != truth.shape[-1]:
        raise DimensionMismatchError(
            f"family dimension {family.dim} != state dimension {truth.shape[-1]}"
        )
    probs = _clamp_and_renormalize(_traces(effects, truth), family)
    q = inverse_cdf_rows(probs, uniforms[:, 0])
    _jumps(family, q, truth, out, scratch)
    return q, inverse_cdf_rows(step.errors.eta.T[q], uniforms[:, 1])


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
    work = np.empty((2, 1) + rho_true.matrix.shape, dtype=np.complex128)
    q, p = _advance_truth(
        step, _effects(step.family), rho_true.matrix[None], rng.random((1, 2)), *work
    )
    return int(q[0]), int(p[0]), DensityOperator(work[0, 0], tolerances)


def _resolve_step(
    provider: StepProvider, k: int, estimate: np.ndarray
) -> MeasurementStep:
    if isinstance(provider, MeasurementStep):
        return provider
    if callable(provider):
        return provider(k, DensityOperator._trusted(estimate.astype(np.complex128)))
    return provider[k - 1]


def _find_truth_matched(
    true_initial: DensityOperator, filter_initials: Mapping[str, DensityOperator]
) -> Optional[str]:
    for name, rho in filter_initials.items():
        if np.abs(rho.matrix - true_initial.matrix).max() <= 1e-12:
            return name
    return None


def _update_filters(
    step: MeasurementStep, estimates, p, tolerances: Tolerances, out, work
) -> List[Tuple[int, int]]:
    """Write the filter updates of a stack (F, N, d, d) by readings p to out.

    The updates are normalized, not yet symmetrized or validated. Returns the
    (filter, row) pairs whose denominator was at or below PROB_FLOOR: those
    rows went through ``filter_update`` (its shrinking-epsilon branch).
    """
    outer, hadamard, weights = step._factors
    rows, v = hadamard[p], weights[p]
    for f, stack in enumerate(estimates):
        _weighted_images(outer, v, rows, stack, out[f], work)
    denominators = out.trace(axis1=-2, axis2=-1).real
    low = denominators <= PROB_FLOOR
    _real_divide(out, np.where(low, 1.0, denominators), out=out)
    regularized = [(int(f), int(i)) for f, i in np.argwhere(low)] if low.any() else []
    for f, i in regularized:
        rho = DensityOperator._trusted(estimates[f, i].astype(np.complex128))
        update = filter_update(FilterState(rho), step, int(p[i]), tolerances)
        update = update.estimate.matrix
        # In a real block the update is real: its imaginary part is exactly zero.
        out[f, i] = update if np.iscomplexobj(out) else _real_if_exact(update)
    return regularized


def _run_block(
    config: TrajectoryConfig, seeds: Sequence[Union[int, np.random.SeedSequence]]
) -> List[TrajectoryRecord]:
    """Run one block of trajectories, trajectory i seeded by seeds[i]."""
    n = len(seeds)
    horizon = config.horizon
    names = tuple(config.filter_initials)
    d = config.true_initial.dim
    # Two uniforms per step and trajectory, in the order a serial run draws.
    uniforms = np.stack(
        [np.random.default_rng(seed).random(2 * horizon) for seed in seeds]
    ).reshape(n, horizon, 2)

    # The block's buffers, real if the data is. states[0] is the truth,
    # states[1 + f] filter f.
    initials = [config.true_initial] + [config.filter_initials[name] for name in names]
    initials = _real_if_exact(np.stack([rho.matrix for rho in initials]))
    dtype = np.result_type(initials, *map(_dtype, _fixed_steps(config)))
    states = np.empty((1 + len(names), n, d, d), dtype)
    produced, scratch = np.empty_like(states), np.empty_like(states)
    work = None
    states[:] = initials[:, None]
    slots = [(1 + names.index(a), 1 + names.index(b)) for a, b in config.fidelity_pairs]
    # Per step: the fidelities (N,) of each pair, and the outcomes q and p.
    fids = [[_fidelities(states[a], states[b], scratch[:2]) for a, b in slots]]
    outcomes = []
    flagged: List[List[Tuple[int, str]]] = [[] for _ in range(n)]
    used_steps: List[MeasurementStep] = []
    history: List[np.ndarray] = []
    predictions: List[np.ndarray] = []
    # One per distinct step object; none kept under a callable provider.
    effects_of: Dict[int, np.ndarray] = {}

    for k in range(1, horizon + 1):
        step = _resolve_step(config.steps, k, states[1, 0])
        used_steps.append(step)
        family = step.family
        dtype = np.result_type(states, _dtype(step))
        if dtype != states.dtype:  # a complex step in a real block: upcast, once
            states = states.astype(dtype)
            produced, scratch = np.empty_like(states), np.empty_like(states)
        effects = effects_of.get(id(step))
        if effects is None:
            effects = _effects(family)
            if not callable(config.steps):
                effects_of[id(step)] = effects
        q, p = _advance_truth(
            step, effects, states[0], uniforms[:, k - 1], produced[0], scratch[0]
        )
        if config.record_predictions:
            raw = _traces(effects, states[1:]) @ step.errors.eta.T
            probs = _clamp_and_renormalize(raw, family)
            predictions.append(probs.reshape(len(names), n, -1))
        tol = config.tolerances
        work = _workspace(step._factors[0], n, work, states.dtype)
        regularized = _update_filters(step, states[1:], p, tol, produced[1:], work)
        _validated(produced, tol, out=states, scratch=scratch)
        outcomes.append((q, p))
        for f, i in regularized:
            flagged[i].append((k, names[f]))
        fids.append([_fidelities(states[a], states[b], scratch[:2]) for a, b in slots])
        if config.store_states:
            history.append(states.astype(np.complex128))

    matched = _find_truth_matched(config.true_initial, config.filter_initials)
    steps = tuple(used_steps)
    # (2, N, horizon) and (pairs, N, horizon + 1)
    outcomes = np.asarray(outcomes, dtype=np.int64).transpose(1, 2, 0)
    fids = np.asarray(fids, dtype=np.float64).reshape(horizon + 1, len(slots), n)
    fids = fids.transpose(1, 2, 0)

    def per_filter(value) -> Dict[str, object]:
        return {name: value(f) for f, name in enumerate(names)}

    def stored(slot: int, i: int) -> Tuple[DensityOperator, ...]:
        return tuple(DensityOperator._trusted(s[slot, i]) for s in history)

    store, predict = config.store_states, config.record_predictions
    preds = np.asarray(predictions)  # (horizon, F, N, outcomes)
    return [
        TrajectoryRecord(
            ideal_outcomes=outcomes[0, i].copy(),
            real_outcomes=outcomes[1, i].copy(),
            fidelities={
                pair: fids[j, i].copy() for j, pair in enumerate(config.fidelity_pairs)
            },
            filter_names=names,
            true_initial=config.true_initial,
            filter_initials=dict(config.filter_initials),
            steps=steps,
            truth_matched_filter=matched,
            true_states=stored(0, i) if store else None,
            filter_states=per_filter(lambda f: stored(1 + f, i)) if store else None,
            predicted_probabilities=(
                per_filter(lambda f: preds[:, f, i].copy()) if predict else None
            ),
            flagged_steps=tuple(flagged[i]),
        )
        for i in range(n)
    ]


def run_trajectory(config: TrajectoryConfig) -> TrajectoryRecord:
    """Simulate one trajectory: truth, detector, and all configured filters."""
    return _run_block(config, [config.seed])[0]


def run_ensemble(
    config: TrajectoryConfig, n_traj: int, base_seed: int
) -> List[TrajectoryRecord]:
    """Run n_traj independent trajectories with derived per-trajectory seeds.

    Seeds come from SeedSequence(base_seed).spawn, numpy's splittable
    scheme: trajectory i always sees the same stream regardless of how many
    trajectories run, and two ensembles with the same base seed are
    bit-identical. Trajectories advance in blocks whose Kraus images fit in
    BLOCK_BYTES (blocks of one under a feedback StepProvider); record i
    equals run_trajectory with seed child i, its outcome stream exactly and
    its states and fidelities to rounding.
    """
    if n_traj < 1:
        raise ValidationError(f"n_traj must be >= 1, got {n_traj}")
    _check_seed(base_seed)
    children = np.random.SeedSequence(base_seed).spawn(n_traj)
    size = _block_size(config)
    records: List[TrajectoryRecord] = []
    for start in range(0, n_traj, size):
        records += _run_block(config, children[start : start + size])
    return records

"""Workload inputs: sizes, recorded instance pools and the JSON configs.

This module imports neither numpy nor qfilter, so the parent process can
write configs without starting a BLAS runtime.

A run's ``--seed`` picks where it starts in each workload's pool of
recorded instances; call ``i`` of the run uses pool entry
``(seed * SEED_STRIDE + i) % pool``. Every pool entry has a reference
recorded by ``reference.py``, so every call can be checked, and the same
seed always gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

WORKLOADS = ("ensemble", "feedback", "verify")

# ensemble: one `qfilter simulate` call is N_TRAJ trajectories of HORIZON steps.
ENSEMBLE_N_TRAJ = 100
ENSEMBLE_HORIZON = 50
ENSEMBLE_POOL = 64

# feedback: one loop is one run_trajectory of FEEDBACK_STEPS controller steps.
FEEDBACK_STEPS = 1000
FEEDBACK_POOL = 64
FEEDBACK_TARGET_PHOTONS = 3.0
FEEDBACK_GAIN = 0.1
# |alpha|^2 stays below n_max / 4 = 2.5, so displacement never warns.
FEEDBACK_ALPHA_MAX = 1.0

# verify: the acceptance-criterion sizes of the seven suites.
VERIFY_SIZES: Dict[str, Dict] = {
    "oracle": {"n_instances": 200},
    "ideal-reduction": {"n_instances": 100},
    "submartingale-exact": {"n_instances": 1000},
    "inequality": {"n_instances": 1000},
    "photonbox-structure": {"n_param_draws": 100},
    "predictive-consistency": {"n_traj": 10_000},
    "determinism": {"n_traj": 100, "horizon": 20},
}
VERIFY_POOL = 16

POOLS = {"ensemble": ENSEMBLE_POOL, "feedback": FEEDBACK_POOL, "verify": VERIFY_POOL}
SEED_STRIDE = 11  # coprime with every pool size


def instance(workload: str, seed: int, call: int) -> int:
    """Pool entry used by call ``call`` of a run started with ``seed``."""
    return (seed * SEED_STRIDE + call) % POOLS[workload]


def _photonbox_config(horizon: int, out_dir: str) -> Dict:
    return {
        "model": {"type": "photonbox", "params": {"n_max": 10}, "alpha": [0.0, 0.0]},
        "initial": {
            "true": {"kind": "basis", "index": 0},
            "filters": {
                "optimal": {"kind": "basis", "index": 0},
                "agnostic": {"kind": "maximally_mixed"},
            },
        },
        "horizon": horizon,
        "output": {"directory": out_dir},
    }


def config_for(workload: str, index: int, out_dir: str) -> Dict:
    """The experiment config of one pool entry."""
    if workload == "ensemble":
        config = _photonbox_config(ENSEMBLE_HORIZON, out_dir)
        config.update(
            n_traj=ENSEMBLE_N_TRAJ,
            seed=index,
            fidelity_pairs=[["optimal", "agnostic"]],
            checks=["submartingale"],
        )
        return config
    if workload == "feedback":
        # The controller builds every step's Kraus family; the config
        # supplies the probe parameters, the error model and the states.
        return _photonbox_config(FEEDBACK_STEPS, out_dir)
    if workload == "verify":
        config = _photonbox_config(1, out_dir)
        config["checks"] = list(VERIFY_SIZES)
        config["verify"] = {
            name: dict(sizes, seed=index) for name, sizes in VERIFY_SIZES.items()
        }
        return config
    raise ValueError(f"unknown workload {workload!r}")


def write_config(workload: str, index: int, work_dir: Path) -> Path:
    """Write the config of one pool entry under ``work_dir``; return its path."""
    out_dir = work_dir / f"{workload}-out"
    path = work_dir / f"{workload}-{index}.json"
    path.write_text(json.dumps(config_for(workload, index, str(out_dir)), indent=1))
    return path


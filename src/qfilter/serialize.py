"""File formats: JSON wire representations of every value the CLI touches.

Conventions:

- Complex matrices: ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
  with entries row-major. Floats are emitted at full round-trip precision
  (shortest repr), so files re-validate bit-exactly.
- Kraus families: labeled operator list plus declared completeness tolerance.
- Error models: dense real rows with an (m_real, m_ideal) header.
- Trajectory records: one JSON object per line (JSONL); the stream is
  prefixed by a header line describing the model so records stay compact.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

import numpy as np

from .density import DensityOperator
from .errormodel import ErrorModel
from .errors import ValidationError
from .filtering import MeasurementStep
from .kraus import KrausFamily
from .simulate import TrajectoryRecord

__all__ = [
    "dumps",
    "matrix_to_dict",
    "matrix_from_dict",
    "density_to_dict",
    "kraus_family_to_dict",
    "kraus_family_from_dict",
    "error_model_to_dict",
    "error_model_from_dict",
    "step_from_dict",
    "record_to_dict",
]


def dumps(obj) -> str:
    """Deterministic, full-precision JSON encoding (no NaN/Inf allowed)."""
    return json.dumps(obj, allow_nan=False, separators=(",", ":"))


def matrix_to_dict(matrix: np.ndarray) -> Dict:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_dict(data: Dict) -> np.ndarray:
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = data["entries"]
    if len(entries) != rows * cols:
        raise ValidationError(
            f"matrix declares {rows}x{cols} but carries {len(entries)} entries"
        )
    flat = np.array(
        [complex(re, im) for re, im in entries], dtype=np.complex128
    )
    return flat.reshape(rows, cols)


def density_to_dict(rho: DensityOperator) -> Dict:
    return matrix_to_dict(rho.matrix)


def kraus_family_to_dict(family: KrausFamily) -> Dict:
    return {
        "completeness_tolerance": family.completeness_tolerance,
        "labels": list(family.labels) if family.labels is not None else None,
        "operators": [matrix_to_dict(op) for op in family.operators],
    }


def kraus_family_from_dict(data: Dict) -> KrausFamily:
    return KrausFamily(
        [matrix_from_dict(op) for op in data["operators"]],
        completeness_tolerance=float(data.get("completeness_tolerance", 1e-9)),
        labels=data.get("labels"),
    )


def error_model_to_dict(model: ErrorModel) -> Dict:
    return {
        "m_real": model.m_real,
        "m_ideal": model.m_ideal,
        "rows": [[float(x) for x in row] for row in model.eta],
    }


def error_model_from_dict(data: Dict) -> ErrorModel:
    eta = np.asarray(data["rows"], dtype=np.float64)
    if eta.shape != (int(data["m_real"]), int(data["m_ideal"])):
        raise ValidationError(
            f"error model declares {(data['m_real'], data['m_ideal'])} "
            f"but carries shape {eta.shape}"
        )
    return ErrorModel(eta)


def step_from_dict(data: Dict) -> MeasurementStep:
    return MeasurementStep(
        family=kraus_family_from_dict(data["kraus"]),
        errors=error_model_from_dict(data["eta"]),
        label=data.get("label"),
    )


def _pair_key(pair: Tuple[str, str]) -> str:
    return f"{pair[0]}|{pair[1]}"


def record_to_dict(record: TrajectoryRecord) -> Dict:
    """JSON form of one trajectory (steps are carried by the stream header);
    the states are written when the record holds them."""
    out = {
        "ideal_outcomes": record.ideal_outcomes.tolist(),
        "real_outcomes": record.real_outcomes.tolist(),
        "fidelities": {
            _pair_key(pair): series.tolist()
            for pair, series in record.fidelities.items()
        },
        "filter_names": list(record.filter_names),
        "truth_matched_filter": record.truth_matched_filter,
        "flagged_steps": [[k, name] for k, name in record.flagged_steps],
    }
    if record.predicted_probabilities is not None:
        out["predicted_probabilities"] = {
            name: rows.tolist()
            for name, rows in record.predicted_probabilities.items()
        }
    if record.true_states is not None:
        out["true_initial"] = density_to_dict(record.true_initial)
        out["filter_initials"] = {
            name: density_to_dict(rho)
            for name, rho in record.filter_initials.items()
        }
        out["true_states"] = [density_to_dict(r) for r in record.true_states]
        out["filter_states"] = {
            name: [density_to_dict(r) for r in states]
            for name, states in record.filter_states.items()
        }
    return out


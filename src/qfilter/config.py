"""Experiment configuration: JSON schema, loading, and model building.

One human-readable structured format covers both model families:

- generic: explicit per-step Kraus operator lists and error matrices;
- photonbox: the cavity probe parameter block plus a displacement schedule.

Configs are schema-validated before any computation; every numeric payload
uses the matrix/vector conventions from ``serialize``. Parsing depends only
on the JSON content, so a config re-parsed after a JSON round trip is equal.

The ``checks`` names and the ``verify`` block are validated by a schema
fragment built from ``verify.ALL_SUITES`` and each suite's signature: an
unknown check, suite or parameter, or a suite value that is not an integer
in range, is a ConfigError before any suite runs.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import jsonschema

from .density import DEFAULT_TOLERANCES, DensityOperator, Tolerances
from .errors import ConfigError, ValidationError
from .filtering import MeasurementStep
from .photonbox import PhotonBoxParams, composite_kraus, detection_error_model
from .serialize import matrix_from_dict, step_from_dict
from .verify import ALL_SUITES

__all__ = [
    "CONFIG_SCHEMA",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "parse_tolerances",
    "photonbox_params",
    "build_steps",
    "build_state",
    "resolve_states",
]

_MATRIX_SCHEMA = {
    "type": "object",
    "required": ["rows", "cols", "entries"],
    "properties": {
        "rows": {"type": "integer", "minimum": 1},
        "cols": {"type": "integer", "minimum": 1},
        "entries": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "additionalProperties": False,
}

_COMPLEX_SCHEMA = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_STATE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "required": ["kind", "matrix"],
            "properties": {
                "kind": {"const": "matrix"},
                "matrix": _MATRIX_SCHEMA,
            },
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"const": "maximally_mixed"}},
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["kind", "index"],
            "properties": {
                "kind": {"const": "basis"},
                "index": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["kind", "amplitudes"],
            "properties": {
                "kind": {"const": "pure"},
                "amplitudes": {"type": "array", "items": _COMPLEX_SCHEMA},
            },
            "additionalProperties": False,
        },
    ]
}

_GENERIC_MODEL_SCHEMA = {
    "type": "object",
    "required": ["type", "steps"],
    "properties": {
        "type": {"const": "generic"},
        "steps": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["kraus", "eta"],
                "properties": {
                    "kraus": {
                        "type": "object",
                        "required": ["operators"],
                        "properties": {
                            "operators": {
                                "type": "array",
                                "minItems": 1,
                                "items": _MATRIX_SCHEMA,
                            },
                            "completeness_tolerance": {"type": "number"},
                            "labels": {
                                "type": ["array", "null"],
                                "items": {"type": "string"},
                            },
                        },
                        "additionalProperties": False,
                    },
                    "eta": {
                        "type": "object",
                        "required": ["m_real", "m_ideal", "rows"],
                        "properties": {
                            "m_real": {"type": "integer", "minimum": 1},
                            "m_ideal": {"type": "integer", "minimum": 1},
                            "rows": {
                                "type": "array",
                                "items": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                },
                            },
                        },
                        "additionalProperties": False,
                    },
                    "label": {"type": ["string", "null"]},
                },
                "additionalProperties": False,
            },
        },
        "cycle": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_PHOTONBOX_MODEL_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": {"const": "photonbox"},
        "params": {
            "type": "object",
            "properties": {
                "n_max": {"type": "integer", "minimum": 1},
                "p_atom": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "detection_efficiency": {"type": "number"},
                "assign_error_g": {"type": "number"},
                "assign_error_e": {"type": "number"},
                "decoherence_strength": {"type": "number"},
                "thermal_occupation": {"type": "number"},
                "phase_per_photon": {"type": "number"},
                "reference_phase": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "alpha": {
            "oneOf": [
                _COMPLEX_SCHEMA,
                {"type": "array", "items": _COMPLEX_SCHEMA, "minItems": 1},
            ]
        },
    },
    "additionalProperties": False,
}


def _suite_schema(suite) -> Dict:
    """A suite's parameters: integers, ``seed`` >= 0 and every size >= 1."""
    return {
        "type": "object",
        "properties": {
            name: {"type": "integer", "minimum": 0 if name == "seed" else 1}
            for name in inspect.signature(suite).parameters
        },
        "additionalProperties": False,
    }


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "qfilter experiment configuration",
    "type": "object",
    "required": ["model", "initial", "horizon"],
    "properties": {
        "model": {"oneOf": [_GENERIC_MODEL_SCHEMA, _PHOTONBOX_MODEL_SCHEMA]},
        "initial": {
            "type": "object",
            "required": ["true", "filters"],
            "properties": {
                "true": _STATE_SCHEMA,
                "filters": {
                    "type": "object",
                    "minProperties": 1,
                    "additionalProperties": _STATE_SCHEMA,
                },
            },
            "additionalProperties": False,
        },
        "horizon": {"type": "integer", "minimum": 1},
        "n_traj": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "fidelity_pairs": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "string"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "store_states": {"type": "boolean"},
        "record_predictions": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {"enum": ["submartingale", *ALL_SUITES]},
        },
        "verify": {
            "type": "object",
            "properties": {
                name: _suite_schema(suite) for name, suite in ALL_SUITES.items()
            },
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "output": {
            "type": "object",
            "properties": {"directory": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# Built once: jsonschema.validate would check CONFIG_SCHEMA against the
# metaschema on every call.
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration."""

    model: Dict
    initial_true: Dict
    initial_filters: Dict[str, Dict]
    horizon: int
    n_traj: int = 1
    seed: int = 0
    fidelity_pairs: Tuple[Tuple[str, str], ...] = ()
    store_states: bool = False
    record_predictions: bool = False
    checks: Tuple[str, ...] = ()
    verify: Dict = field(default_factory=dict)
    tolerances: Tolerances = Tolerances()
    output_directory: str = "out"


def parse_config(data: Dict) -> ExperimentConfig:
    """Schema-validate a config dict and normalize it."""
    err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if err is not None:
        path = "$" + "".join(f"[{p!r}]" for p in err.absolute_path)
        raise ConfigError(f"config invalid at {path}: {err.message}") from err
    return ExperimentConfig(
        model=data["model"],
        initial_true=data["initial"]["true"],
        initial_filters=dict(data["initial"]["filters"]),
        horizon=int(data["horizon"]),
        n_traj=int(data.get("n_traj", 1)),
        seed=int(data.get("seed", 0)),
        fidelity_pairs=tuple(
            (str(a), str(b)) for a, b in data.get("fidelity_pairs", [])
        ),
        store_states=bool(data.get("store_states", False)),
        record_predictions=bool(data.get("record_predictions", False)),
        checks=tuple(str(c) for c in data.get("checks", [])),
        verify={  # jsonschema counts 3.0 as an integer
            suite: {key: int(value) for key, value in params.items()}
            for suite, params in data.get("verify", {}).items()
        },
        tolerances=parse_tolerances(data.get("tolerances", {})),
        output_directory=str(data.get("output", {}).get("directory", "out")),
    )


def parse_tolerances(
    values: Mapping[str, object], base: Tolerances = DEFAULT_TOLERANCES
) -> Tolerances:
    """``base`` with the named tolerances replaced, each finite and > 0.

    The one parser for the config's ``tolerances`` block and ``--tolerance``.
    """
    names = [f.name for f in dataclasses.fields(Tolerances)]
    parsed = {}
    for name, value in values.items():
        if name not in names:
            raise ConfigError(
                f"unknown tolerance {name!r}; expected one of {', '.join(names)}"
            )
        try:
            parsed[name] = float(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"tolerance {name}={value!r} is not a number") from err
    try:
        return dataclasses.replace(base, **parsed)
    except ValidationError as err:
        raise ConfigError(str(err)) from err


def _non_finite(value: object, where: str = "") -> Optional[str]:
    """JSON pointer to the first NaN or infinite number in parsed JSON, or None.

    Python's json reads NaN, Infinity, -Infinity and 1e999 as such floats.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return where
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            found = _non_finite(child, f"{where}/{key}")
            if found is not None:
                return found
    return None


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    """Read and validate a JSON config file, with file/position diagnostics."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path} is not valid JSON: line {err.lineno}, "
            f"column {err.colno}: {err.msg}"
        ) from err
    where = _non_finite(data)
    if where is not None:
        raise ConfigError(f"config {path} has a NaN or infinite number at {where}")
    try:
        return parse_config(data)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err


def photonbox_params(model: Dict) -> PhotonBoxParams:
    """The photon-box parameters of a model block; bad values are ConfigError."""
    try:
        return PhotonBoxParams(**model.get("params", {}))
    except ValidationError as err:
        raise ConfigError(f"photonbox params invalid: {err}") from err


def _model_dim(model: Dict) -> int:
    if model["type"] == "photonbox":
        return photonbox_params(model).dim
    first = model["steps"][0]["kraus"]["operators"][0]
    return int(first["rows"])


def build_state(spec: Dict, dim: int, tolerances: Tolerances) -> DensityOperator:
    """Materialize a state spec at the model dimension."""
    kind = spec["kind"]
    if kind == "matrix":
        return DensityOperator(matrix_from_dict(spec["matrix"]), tolerances)
    if kind == "maximally_mixed":
        return DensityOperator.maximally_mixed(dim)
    if kind == "basis":
        index = int(spec["index"])
        if index >= dim:
            raise ConfigError(f"basis index {index} out of range for dim {dim}")
        return DensityOperator.basis_state(dim, index)
    if kind == "pure":
        amps = [complex(re, im) for re, im in spec["amplitudes"]]
        if len(amps) != dim:
            raise ConfigError(
                f"pure state has {len(amps)} amplitudes, model dim is {dim}"
            )
        return DensityOperator.from_pure(amps)
    raise ConfigError(f"unknown state kind {kind!r}")


def build_steps(model: Dict, horizon: int) -> List[MeasurementStep]:
    """Materialize the per-step measurement models for a horizon."""
    if model["type"] == "photonbox":
        params = photonbox_params(model)
        errors = detection_error_model(params)
        alpha = model.get("alpha", [0.0, 0.0])
        if isinstance(alpha[0], (list, tuple)):
            schedule = [complex(re, im) for re, im in alpha]
            if len(schedule) < horizon:
                raise ConfigError(
                    f"alpha schedule has {len(schedule)} entries for "
                    f"horizon {horizon}"
                )
        else:
            schedule = [complex(alpha[0], alpha[1])] * horizon
        steps = {  # one step, so one set of effects per run, per distinct alpha
            a: MeasurementStep(
                composite_kraus(params, a), errors, label=f"photonbox(alpha={a})"
            )
            for a in set(schedule[:horizon])
        }
        return [steps[a] for a in schedule[:horizon]]

    try:
        declared = [step_from_dict(s) for s in model["steps"]]
    except ValidationError as err:
        raise ConfigError(f"model step invalid: {err}") from err
    if len(declared) >= horizon:
        return declared[:horizon]
    if len(declared) == 1 or model.get("cycle", False):
        return [declared[i % len(declared)] for i in range(horizon)]
    raise ConfigError(
        f"model declares {len(declared)} steps for horizon {horizon} "
        "and cycle is false"
    )


def resolve_states(
    config: ExperimentConfig,
) -> Tuple[DensityOperator, Dict[str, DensityOperator], int]:
    """True state, named filter states, and the model dimension."""
    dim = _model_dim(config.model)
    true_state = build_state(config.initial_true, dim, config.tolerances)
    filters = {
        name: build_state(spec, dim, config.tolerances)
        for name, spec in config.initial_filters.items()
    }
    return true_state, filters, dim

"""Command-line front end.

Subcommands:

- ``filter``: run the recursive filter offline over a recorded outcome file.
- ``simulate``: run a Monte Carlo ensemble, write trajectories and summary
  statistics, optionally run the ensemble stability check.
- ``verify``: run named verification suites, write a machine-readable report.
- ``photonbox-export``: dump the cavity-probe operator matrices.

Exit codes: 0 success, 1 usage/config error, 2 numerical or check failure.
Logs go to stderr; data goes to files under ``--out`` (default: the config's
output directory).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .config import (
    ExperimentConfig,
    build_steps,
    load_config,
    parse_tolerances,
    photonbox_params,
    resolve_states,
)
from .density import Tolerances
from .errors import ConfigError, QFilterError
from .filtering import FilterState, filter_update, outcome_probabilities
from .photonbox import (
    ATOM_JUMPS,
    CAVITY_JUMPS,
    DETECTIONS,
    PhotonBoxParams,
    composite_kraus,
    detection_error_model,
    l_operators,
)
from .simulate import TrajectoryConfig, run_ensemble
from .stability import ensemble_submartingale
from .verify import ALL_SUITES, run_suites
from . import serialize

log = logging.getLogger("qfilter")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, reading "-1e-3" and
    "-inf" as negative numbers (argparse alone takes them for options)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.I
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_common(p: argparse.ArgumentParser, *, config_required: bool = True):
    p.add_argument(
        "--config", required=config_required, help="path to the JSON experiment config"
    )
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--out", default=None, help="output directory (default: config output.directory)"
    )
    p.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="name=value",
        help="override a named tolerance ("
        + ", ".join(f.name for f in dataclasses.fields(Tolerances)) + ")",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfilter",
        description="Discrete-time quantum trajectory filtering under imperfect detection.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser(
        "filter", help="run the recursive filter over a recorded outcome file"
    )
    _add_common(p_filter)
    p_filter.add_argument(
        "--outcomes",
        required=True,
        help='JSON file {"outcomes": [p_1, p_2, ...]} of detector readings',
    )

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo trajectory ensemble")
    _add_common(p_sim)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify)
    p_verify.add_argument(
        "--check",
        action="append",
        default=[],
        help="suite name (repeatable; default: every suite named in the config, "
        "else all)",
    )

    p_export = sub.add_parser(
        "photonbox-export", help="dump the cavity-probe operator matrices"
    )
    _add_common(p_export, config_required=False)
    p_export.add_argument(
        "--alpha",
        type=float,
        nargs=2,
        default=(0.0, 0.0),
        metavar=("RE", "IM"),
        help="displacement amplitude (default 0 0)",
    )

    return parser


def _prepare(args) -> ExperimentConfig:
    config = load_config(args.config)
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output_directory"] = args.out
    if args.tolerance:
        overrides = {}
        for item in args.tolerance:
            name, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"bad --tolerance {item!r}; expected name=value")
            overrides[name] = value
        updates["tolerances"] = parse_tolerances(overrides, config.tolerances)
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_filter(args) -> int:
    config = _prepare(args)
    out = _out_dir(config)
    try:
        payload = json.loads(Path(args.outcomes).read_text())
        outcomes = [int(p) for p in payload["outcomes"]]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"cannot read outcomes file {args.outcomes}: {err}")

    steps = build_steps(config.model, max(len(outcomes), 1))[: len(outcomes)]
    _, filters, dim = resolve_states(config)
    name, initial = next(iter(filters.items()))
    log.info("filtering %d outcomes for filter %r (dim %d)", len(outcomes), name, dim)

    for k, p in enumerate(outcomes):
        if not 0 <= p < steps[k].m_real:
            raise ConfigError(
                f"outcome {p} at position {k} out of range for "
                f"m_real={steps[k].m_real}"
            )

    path = out / "filter.jsonl"
    state = FilterState(estimate=initial)
    with path.open("w") as fh:
        fh.write(
            serialize.dumps(
                {
                    "type": "filter_header",
                    "filter": name,
                    "dim": dim,
                    "initial": serialize.density_to_dict(initial),
                }
            )
            + "\n"
        )
        for k, p in enumerate(outcomes, start=1):
            step = steps[k - 1]
            predicted = outcome_probabilities(state, step)
            state = filter_update(state, step, p, config.tolerances)
            fh.write(
                serialize.dumps(
                    {
                        "type": "filter_step",
                        "k": k,
                        "outcome": p,
                        "predicted": predicted.tolist(),
                        "regularized": state.regularized,
                        "estimate": serialize.density_to_dict(state.estimate),
                    }
                )
                + "\n"
            )
    log.info("wrote %s", path)
    return EXIT_OK


def _write_summary(
    out: Path, reports: Dict, horizon: int
) -> Path:
    path = out / "summary.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["pair", "k", "mean_fidelity", "mean_delta", "se_delta",
             "violation_fraction", "n_traj"]
        )
        for pair_key, rep in reports.items():
            for k in range(horizon + 1):
                writer.writerow(
                    [
                        pair_key,
                        k,
                        repr(float(rep.mean_fidelity[k])),
                        repr(float(rep.mean_delta[k - 1])) if k >= 1 else "",
                        repr(float(rep.se_delta[k - 1])) if k >= 1 else "",
                        repr(float(rep.violation_fraction[k - 1])) if k >= 1 else "",
                        rep.n_traj,
                    ]
                )
    return path


def cmd_simulate(args) -> int:
    config = _prepare(args)
    out = _out_dir(config)
    steps = build_steps(config.model, config.horizon)
    true_state, filters, dim = resolve_states(config)

    pairs = config.fidelity_pairs
    if not pairs and len(filters) >= 2:
        names = list(filters)
        pairs = ((names[0], names[1]),)

    traj_config = TrajectoryConfig(
        true_initial=true_state,
        filter_initials=filters,
        steps=steps,
        horizon=config.horizon,
        fidelity_pairs=pairs,
        store_states=config.store_states,
        record_predictions=config.record_predictions,
        tolerances=config.tolerances,
    )
    log.info(
        "simulating %d trajectories, horizon %d, dim %d, seed %d",
        config.n_traj, config.horizon, dim, config.seed,
    )
    records = run_ensemble(traj_config, config.n_traj, base_seed=config.seed)

    traj_path = out / "trajectories.jsonl"
    with traj_path.open("w") as fh:
        fh.write(
            serialize.dumps(
                {
                    "type": "ensemble_header",
                    "model": config.model,
                    "n_traj": config.n_traj,
                    "horizon": config.horizon,
                    "seed": config.seed,
                    "filters": list(filters),
                }
            )
            + "\n"
        )
        for record in records:
            fh.write(
                serialize.dumps(
                    serialize.record_to_dict(
                        record, include_states=config.store_states
                    )
                )
                + "\n"
            )
    log.info("wrote %s", traj_path)

    failures = 0
    reports = {}
    if pairs:
        for pair in pairs:
            try:
                reports[f"{pair[0]}|{pair[1]}"] = ensemble_submartingale(
                    records, pair
                )
            except QFilterError as err:
                log.warning("no ensemble report for %s: %s", pair, err)
        if reports:
            summary_path = _write_summary(out, reports, config.horizon)
            log.info("wrote %s", summary_path)

    if "submartingale" in config.checks:
        report_path = out / "report.json"
        payload = {key: rep.to_dict() for key, rep in reports.items()}
        report_path.write_text(json.dumps(payload, indent=2) + "\n")
        log.info("wrote %s", report_path)
        failures = sum(0 if rep.passed else 1 for rep in reports.values())
        if not reports:
            log.error("submartingale check requested but no pair could be reported")
            failures += 1

    return EXIT_CHECK_FAILURE if failures else EXIT_OK


def cmd_verify(args) -> int:
    config = _prepare(args)
    out = _out_dir(config)
    names = list(args.check) or list(config.checks) or list(ALL_SUITES)
    log.info("running verification suites: %s", ", ".join(names))
    results = run_suites(names, config.verify)

    report = {
        "suites": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for r in results:
        log.info("%-24s %s", r.name, "PASS" if r.passed else f"FAIL ({r.error})")
    log.info("wrote %s", path)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILURE


def cmd_photonbox_export(args) -> int:
    if args.config:
        config = _prepare(args)
        if config.model.get("type") != "photonbox":
            raise ConfigError("photonbox-export needs a photonbox model config")
        params = photonbox_params(config.model)
        out = _out_dir(config)
    else:
        params = PhotonBoxParams()
        out = Path(args.out or "out")
        out.mkdir(parents=True, exist_ok=True)
    alpha = complex(args.alpha[0], args.alpha[1])
    if not np.isfinite(alpha):
        raise ConfigError(f"--alpha must be finite, got {alpha}")

    elementary = l_operators(params)
    family = composite_kraus(params, alpha)
    payload = {
        "params": dataclasses.asdict(params),
        "alpha": [alpha.real, alpha.imag],
        "atom_jumps": list(ATOM_JUMPS),
        "cavity_jumps": list(CAVITY_JUMPS),
        "detections": list(DETECTIONS),
        "elementary_operators": {
            label: serialize.matrix_to_dict(op) for label, op in elementary.items()
        },
        "composite_kraus": serialize.kraus_family_to_dict(family),
        "detection_error_model": serialize.error_model_to_dict(
            detection_error_model(params)
        ),
    }
    path = out / "operators.json"
    path.write_text(serialize.dumps(payload) + "\n")
    log.info("wrote %s", path)
    return EXIT_OK


_COMMANDS = {
    "filter": cmd_filter,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "photonbox-export": cmd_photonbox_export,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"qfilter: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        log.error("%s", err)
        return EXIT_USAGE
    except QFilterError as err:
        log.error("%s", err)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())

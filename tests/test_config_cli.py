import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qfilter import DensityOperator, KrausFamily, MeasurementStep, ErrorModel
from qfilter.cli import main
from qfilter.config import (
    CONFIG_SCHEMA,
    build_steps,
    load_config,
    parse_config,
    resolve_states,
)
from qfilter.errors import ConfigError
from qfilter import serialize
from qfilter.stability import random_density_operator, random_kraus_family

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


class TestSerializeRoundTrip:
    def test_matrix_round_trip(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = serialize.matrix_from_dict(serialize.matrix_to_dict(m))
        assert np.array_equal(back, m)  # bit-exact

    def test_density_round_trip(self, rng):
        rho = random_density_operator(rng, 4)
        back = serialize.density_from_dict(serialize.density_to_dict(rho))
        assert np.array_equal(back.matrix, rho.matrix)

    def test_kraus_family_round_trip(self, rng):
        family = random_kraus_family(rng, 3, 4)
        back = serialize.kraus_family_from_dict(
            serialize.kraus_family_to_dict(family)
        )
        assert np.array_equal(back.operators, family.operators)
        assert back.completeness_tolerance == family.completeness_tolerance

    def test_step_round_trip(self, two_level_step):
        back = serialize.step_from_dict(serialize.step_to_dict(two_level_step))
        assert np.array_equal(back.errors.eta, two_level_step.errors.eta)
        assert back.label == two_level_step.label

    def test_full_precision_floats(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        m = np.array([[value + 0j]])
        text = serialize.dumps(serialize.matrix_to_dict(m))
        assert "0.30000000000000004" in text


class TestConfig:
    def test_shipped_configs_parse(self):
        for name in (
            "two_level.json",
            "two_level_filter.json",
            "photonbox_small.json",
            "verify_small.json",
        ):
            config = load_config(CONFIGS / name)
            assert config.horizon >= 1

    def test_round_trip_identity(self):
        raw = json.loads((CONFIGS / "two_level.json").read_text())
        config = parse_config(raw)
        # serialize -> parse -> identical config
        assert parse_config(json.loads(json.dumps(raw))) == config

    def test_schema_violation_has_path(self, tmp_path):
        bad = {"model": {"type": "generic", "steps": []}, "initial": {}, "horizon": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "bad.json" in str(err.value)

    def test_json_error_has_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": ')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_build_steps_cycles(self):
        config = load_config(CONFIGS / "two_level.json")
        steps = build_steps(config.model, 7)
        assert len(steps) == 7
        assert all(s.m_real == 2 for s in steps)

    def test_build_steps_photonbox(self):
        config = load_config(CONFIGS / "photonbox_small.json")
        steps = build_steps(config.model, 3)
        assert len(steps) == 3
        assert steps[0].family.count == 21
        assert steps[0].m_real == 6

    def test_resolve_states(self):
        config = load_config(CONFIGS / "photonbox_small.json")
        true_state, filters, dim = resolve_states(config)
        assert dim == 11
        assert true_state.matrix[0, 0] == pytest.approx(1.0)
        assert filters["agnostic"].matrix[0, 0] == pytest.approx(1 / 11)

    def test_alpha_schedule(self):
        model = {
            "type": "photonbox",
            "params": {"n_max": 4},
            "alpha": [[0.1, 0.0], [0.2, 0.0]],
        }
        steps = build_steps(model, 2)
        assert steps[0].family is not steps[1].family
        with pytest.raises(ConfigError):
            build_steps(model, 3)  # schedule too short

    @pytest.mark.parametrize(
        "name, value",
        [("psd", float("nan")), ("psd", float("inf")), ("psd", -1.0),
         ("herm", 0.0), ("bogus", 1e-9)],
    )
    def test_bad_tolerance_in_config_rejected(self, tmp_path, name, value):
        raw = json.loads((CONFIGS / "two_level.json").read_text())
        raw["tolerances"] = {name: value}
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps(raw))  # json writes NaN and Infinity
        with pytest.raises(ConfigError, match=name):
            load_config(path)

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_photonbox_p_atom_list_builds(self):
        model = {"type": "photonbox", "params": {"n_max": 3, "p_atom": [0.2, 0.7, 0.1]}}
        steps = build_steps(model, 2)
        assert steps[0].family.count == 21


class TestCli:
    def test_filter_worked_example(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "filter",
                "--config", str(CONFIGS / "two_level_filter.json"),
                "--outcomes", str(CONFIGS / "two_level_single_outcome.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "filter.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        step = json.loads(lines[1])
        assert header["type"] == "filter_header"
        estimate = serialize.matrix_from_dict(step["estimate"])
        assert np.abs(estimate - np.diag([0.9, 0.1])).max() < 1e-14
        assert step["predicted"] == pytest.approx([0.5, 0.5])

    def test_filter_empty_outcomes(self, tmp_path):
        outcomes = tmp_path / "empty.json"
        outcomes.write_text('{"outcomes": []}')
        out = tmp_path / "run"
        code = main(
            [
                "filter",
                "--config", str(CONFIGS / "two_level_filter.json"),
                "--outcomes", str(outcomes),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "filter.jsonl").read_text().splitlines()
        assert len(lines) == 1  # header with the initial state only
        assert json.loads(lines[0])["type"] == "filter_header"

    def test_simulate_deterministic_across_runs(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(
                [
                    "simulate",
                    "--config", str(CONFIGS / "two_level.json"),
                    "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append((out / "trajectories.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_simulate_seed_override_changes_output(self, tmp_path):
        outs = []
        for sub, seed in (("a", "7"), ("b", "8")):
            out = tmp_path / sub
            main(
                [
                    "simulate",
                    "--config", str(CONFIGS / "two_level.json"),
                    "--seed", seed,
                    "--out", str(out),
                ]
            )
            outs.append((out / "trajectories.jsonl").read_bytes())
        assert outs[0] != outs[1]

    def test_verify_small_gate_passes(self, tmp_path):
        out = tmp_path / "verify"
        code = main(
            [
                "verify",
                "--config", str(CONFIGS / "verify_small.json"),
                "--out", str(out),
                "--check", "ideal-reduction",
                "--check", "determinism",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert {s["name"] for s in report["suites"]} == {
            "ideal_reduction", "determinism",
        }

    def test_corrupted_error_model_surfaces(self, tmp_path):
        raw = json.loads((CONFIGS / "two_level.json").read_text())
        raw["model"]["steps"][0]["eta"]["rows"] = [[0.9, 0.1], [0.2, 0.9]]
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(raw))
        code = main(
            ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 1  # config error: column sums deviate

    def test_unknown_check_fails_with_code_2(self, tmp_path):
        code = main(
            [
                "verify",
                "--config", str(CONFIGS / "verify_small.json"),
                "--out", str(tmp_path),
                "--check", "no-such-suite",
            ]
        )
        assert code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["passed"]

    def test_usage_error_exit_code(self, capsys):
        assert main(["filter"]) == 1  # missing required arguments

    def test_missing_config_exit_code(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config", str(tmp_path / "absent.json"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_tolerance_override_parsing(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config", str(CONFIGS / "two_level.json"),
                "--out", str(tmp_path / "o"),
                "--tolerance", "psd=1e-8",
            ]
        )
        assert code == 0
        code = main(
            [
                "simulate",
                "--config", str(CONFIGS / "two_level.json"),
                "--out", str(tmp_path / "o2"),
                "--tolerance", "bogus=1",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
    def test_bad_tolerance_value_exit_code(self, tmp_path, value):
        code = main(
            [
                "simulate",
                "--config", str(CONFIGS / "two_level.json"),
                "--out", str(tmp_path / "o"),
                "--tolerance", f"psd={value}",
            ]
        )
        assert code == 1

    def test_empty_alpha_schedule_exit_code(self, tmp_path):
        raw = json.loads((CONFIGS / "photonbox_small.json").read_text())
        raw["model"]["alpha"] = []
        path = tmp_path / "empty_alpha.json"
        path.write_text(json.dumps(raw))
        code = main(
            ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["simulate", "photonbox-export"])
    def test_bad_photonbox_params_exit_code(self, tmp_path, command):
        raw = json.loads((CONFIGS / "photonbox_small.json").read_text())
        raw["model"]["params"]["p_atom"] = [0.5, 0.5, 0.5]
        path = tmp_path / "bad_params.json"
        path.write_text(json.dumps(raw))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize(
        "key, value",
        [("decoherence_strength", 1e200), ("decoherence_strength", 2.0), ("n_max", 10.0)],
    )
    def test_unphysical_photonbox_params_exit_code(self, tmp_path, key, value):
        raw = json.loads((CONFIGS / "photonbox_small.json").read_text())
        raw["model"]["params"][key] = value
        path = tmp_path / "unphysical.json"
        path.write_text(json.dumps(raw))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_summary_rows_run_from_zero_to_horizon(self, tmp_path):
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(CONFIGS / "two_level.json"), "--out", str(out)])
        assert code == 0
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        horizon = load_config(CONFIGS / "two_level.json").horizon
        assert [int(row["k"]) for row in rows] == list(range(horizon + 1))
        assert rows[0]["mean_delta"] == ""
        assert rows[-1]["mean_delta"] != ""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_json_number_exit_code(self, tmp_path, literal, caplog):
        # an incomplete family that a NaN tolerance would let through
        raw = json.loads((CONFIGS / "two_level.json").read_text())
        kraus = raw["model"]["steps"][0]["kraus"]
        kraus["operators"][0]["entries"][0] = [0.5, 0.0]
        kraus["completeness_tolerance"] = "TOKEN"
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(raw).replace('"TOKEN"', literal))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert str(path) in caplog.text
        assert "/model/steps/0/kraus/completeness_tolerance" in caplog.text

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_negative_seed_exit_code(self, tmp_path, command, caplog):
        config = "two_level.json" if command == "simulate" else "verify_small.json"
        code = main(
            [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "o"),
             "--seed", "-1"]
        )
        assert code == 1
        assert "--seed" in caplog.text

    @pytest.mark.parametrize("alpha", [["nan", "0"], ["inf", "0"], ["0", "nan"]])
    def test_non_finite_alpha_exit_code(self, tmp_path, alpha, caplog):
        code = main(["photonbox-export", "--out", str(tmp_path), "--alpha", *alpha])
        assert code == 1
        assert "--alpha" in caplog.text
        assert not (tmp_path / "operators.json").exists()

    @pytest.mark.parametrize("alpha", [["-1e-3", "0"], ["0", "-2.5e-1"], ["-1E+0", "-.5"]])
    def test_negative_alpha_in_any_float_spelling_exports(self, tmp_path, alpha):
        code = main(["photonbox-export", "--out", str(tmp_path), "--alpha", *alpha])
        assert code == 0
        payload = json.loads((tmp_path / "operators.json").read_text())
        assert payload["alpha"] == [float(alpha[0]), float(alpha[1])]

    @pytest.mark.parametrize("alpha", [["-inf", "0"], ["0", "-Infinity"], ["-nan", "0"]])
    def test_negative_non_finite_alpha_reaches_the_finite_check(
        self, tmp_path, alpha, caplog
    ):
        code = main(["photonbox-export", "--out", str(tmp_path), "--alpha", *alpha])
        assert code == 1
        assert "--alpha must be finite" in caplog.text
        assert not (tmp_path / "operators.json").exists()

    def test_photonbox_export(self, tmp_path):
        code = main(
            ["photonbox-export", "--out", str(tmp_path), "--alpha", "0.3", "0.0"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "operators.json").read_text())
        assert len(payload["composite_kraus"]["operators"]) == 21
        assert payload["detection_error_model"]["m_real"] == 6
        ge = serialize.matrix_from_dict(payload["elementary_operators"]["ge"])
        eg = serialize.matrix_from_dict(payload["elementary_operators"]["eg"])
        assert np.array_equal(ge, eg)

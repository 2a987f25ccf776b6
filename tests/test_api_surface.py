"""Every exported name resolves, so a removal cannot leave a stale export."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import qfilter

MODULES = ["qfilter"] + [
    f"qfilter.{info.name}" for info in pkgutil.iter_modules(qfilter.__path__)
]
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_benchmark_module(name):
    """Import ``benchmarks/<name>.py`` by path, without putting it on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(importlib.import_module(name), "__all__", []):
        assert attr in namespace


def test_benchmark_bindings_resolve():
    # The benchmark wraps every (module, function) in TARGETS and reads these
    # caller bindings; a removal must fail here, not in a traced benchmark run.
    tracing = _load_benchmark_module("tracing")
    missing = [
        f"{module}.{function}"
        for module, function in tracing.TARGETS
        if not callable(
            getattr(importlib.import_module(f"qfilter.{module}"), function, None)
        )
    ]
    assert not missing, f"benchmark TARGETS missing from qfilter: {missing}"
    from qfilter import filtering, kraus, simulate

    assert simulate.filter_update is filtering.filter_update
    assert filtering.weighted_image is kraus.weighted_image


@pytest.mark.parametrize("workload", ["ensemble", "feedback", "verify"])
def test_benchmark_configs_parse(workload, tmp_path):
    # The benchmark writes these configs; a tighter schema must fail here,
    # not in a benchmark run.
    from qfilter.config import parse_config

    inputs = _load_benchmark_module("inputs")
    parse_config(inputs.config_for(workload, 0, str(tmp_path)))

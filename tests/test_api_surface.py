"""Every exported name resolves, so a removal cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import qfilter

MODULES = ["qfilter"] + [
    f"qfilter.{info.name}" for info in pkgutil.iter_modules(qfilter.__path__)
]


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

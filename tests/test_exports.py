"""Every library module's public names resolve."""

import importlib

import pytest

MODULES = ["confined3d", "gpe1d", "harness", "manybody", "scattering",
           "snapshots", "transverse"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(f"quasi1d.{name}")
    namespace = {}
    # a stale __all__ entry raises AttributeError here
    exec(f"from quasi1d.{name} import *", namespace)
    assert module.__all__ and set(module.__all__) <= namespace.keys()

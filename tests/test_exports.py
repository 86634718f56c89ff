"""The public names each ofdmce module exports."""

import importlib

import pytest

MODULES = ("spectral", "phy", "channel", "estimators", "harness", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    """Every ``__all__`` entry exists, and a star import of the module succeeds."""
    module = importlib.import_module(f"ofdmce.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"ofdmce.{name}.__all__ names missing attributes {missing}"
    namespace: dict = {}
    exec(f"from ofdmce.{name} import *", namespace)

"""The public names each ofdmce module exports, and the reference model's
independence from them."""

import ast
import importlib
from pathlib import Path

import pytest

import ofdmce
from ofdmce import phy

MODULES = ("spectral", "phy", "channel", "estimators", "harness", "cli")

REFERENCE = Path(__file__).with_name("reference.py")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    """Every ``__all__`` entry exists, and a star import of the module succeeds."""
    module = importlib.import_module(f"ofdmce.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"ofdmce.{name}.__all__ names missing attributes {missing}"
    namespace: dict = {}
    exec(f"from ofdmce.{name} import *", namespace)


def test_reference_imports_only_the_grid_and_the_transforms():
    """The reference model takes ``GridConfig`` and the two DFT wrappers from
    the package and nothing else, so it never calls the harness, estimator
    or channel code that the tests check against it."""
    tree = ast.parse(REFERENCE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ofdmce":
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "ofdmce" for alias in node.names), ast.unparse(node)
    assert imported == {("ofdmce.phy", "GridConfig"), ("ofdmce.spectral", "dft"), ("ofdmce.spectral", "idft")}


def identifiers(node: ast.AST) -> set:
    """The names a node defines, reads, imports or spells as a string."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def test_no_package_module_defines_a_reference_name():
    """No name the reference model defines is defined, imported, exported,
    read or called anywhere in ``src/ofdmce``, nor left on ``GridConfig``."""
    tree = ast.parse(REFERENCE.read_text())
    moved = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    moved |= {target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets}
    assert {"ofdm_modulate", "apply_channel", "pilot_indices", "_QPSK_POINTS"} <= moved
    for path in sorted(Path(ofdmce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            found = moved & identifiers(node)
            assert not found, f"{path.name}:{getattr(node, 'lineno', '?')} names {sorted(found)}"
    for name in MODULES:
        module = importlib.import_module(f"ofdmce.{name}")
        assert not moved & (set(vars(module)) | set(getattr(module, "__all__", ()))), name
    assert not moved & set(dir(phy.GridConfig))
    assert phy.__all__ == ["GridConfig", "residue_major"]

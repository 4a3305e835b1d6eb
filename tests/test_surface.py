"""The public surface: what each module exports resolves, and modules share no private names."""
import ast
import importlib
from pathlib import Path

import pytest

import shellsde

PACKAGE = Path(shellsde.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"shellsde.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_names_resolve_and_are_public():
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"shellsde.{node.module}")
            for alias in node.names:
                assert hasattr(shellsde, alias.name)
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_crosses_modules(name):
    tree = _tree(name)
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import chain, moments
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                assert not [a.name for a in node.names if a.name.startswith("_")], node.module
    used = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    ]
    assert not used


def test_benchmark_hooks_resolve():
    """Every ``hooks.wrap(<module>, "<attr>", ...)`` of the benchmark's tracer names a package attribute."""
    source = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    wrapped = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) == ("hooks", "wrap")
    ]
    assert wrapped
    missing = [f"{mod}.{attr}" for mod, attr in wrapped if not hasattr(importlib.import_module(f"shellsde.{mod}"), attr)]
    assert not missing


def _named_constants(tree):
    """Nodes inside module-level assignments to UPPER_CASE names."""
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets):
            inside.update(id(n) for n in ast.walk(node))
    return inside


@pytest.mark.parametrize("name", ["__init__", "__main__", *MODULES])
def test_tolerances_are_named_constants(name):
    """A nonzero float literal below 1e-6 is a tolerance, so it must be a module-level UPPER_CASE constant."""
    tree = _tree(name)
    named = _named_constants(tree)
    loose = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
        and id(node) not in named
    ]
    assert not loose

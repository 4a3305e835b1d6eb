"""The public surface: what each module exports resolves and is used, and modules share no private names."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shellsde
from shellsde import noise

PACKAGE = Path(shellsde.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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
    source = ROOT / "benchmarks" / "tracing.py"
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


def _calls(tree):
    """(enclosing function or None, called name) of every call in ``tree``."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                calls.append((scope, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, None)
    return calls


def test_only_slab_rng_builds_a_generator():
    """Both routes draw from one generator family: ``noise.slab_rng``'s SFC64 is the only numpy generator ``src/`` builds.

    The chain reproduces the same family's streams with array arithmetic,
    so it builds none.
    """
    kinds = (np.random.BitGenerator, np.random.Generator, np.random.RandomState)
    makers = {"default_rng"} | {
        name for name in dir(np.random) if isinstance(getattr(np.random, name), type) and issubclass(getattr(np.random, name), kinds)
    }
    built = [
        (name, scope, called)
        for name in ["__init__", "__main__", *MODULES]
        for scope, called in _calls(_tree(name))
        if called in makers
    ]
    assert sorted(built) == [("noise", "slab_rng", "Generator"), ("noise", "slab_rng", "SFC64")]
    assert type(noise.slab_rng(0).bit_generator) is np.random.SFC64


def _reads(tree):
    """Every name a file reads: loaded names and attributes, imported names and string constants.

    The module's ``__all__`` list is skipped, so a name does not count as
    read because it is exported.
    """
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip.update(id(n) for n in ast.walk(node))
    reads = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def test_every_exported_name_is_read_outside_the_tests():
    """A name in a module's ``__all__`` is read by the package, a script or the benchmark, not by tests alone."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    reads = set().union(*(_reads(ast.parse(p.read_text())) for p in sources))
    unread = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"shellsde.{name}"), "__all__", ())
        if attr not in reads
    ]
    assert not unread


# a small run of every subcommand
SUBCOMMAND_RUNS = (
    ["validate", "--model", "goy"],
    ["simulate", "--model", "novikov", "--shells", "4", "--paths", "10", "--horizon", "0.01"],
    ["moments", "--model", "novikov"],
    ["chain", "--model", "novikov", "--replicates", "10"],
    ["constants", "--model", "sabra"],
    ["triangulate", "--model", "novikov", "--paths", "10", "--replicates", "10"],
    ["dissipation", "--model", "goy", "--shells-list", "10,20", "--paths", "0"],
)

_RUN_AND_LIST_SCIPY = """
import contextlib, io, sys
from shellsde.cli import main
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    """scipy is a test dependency only; a fresh interpreter keeps it unloaded through every subcommand."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY.format(runs=SUBCOMMAND_RUNS)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

"""The package's export list matches what the package resolves."""

from __future__ import annotations

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import merosolve


def test_all_is_exactly_the_public_names_the_package_resolves():
    names = merosolve.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(merosolve, name), name
    assert merosolve.classify is importlib.import_module("merosolve.classify").classify
    # each export is read through __getattr__ alone, also once its module has
    # loaded, and the package binds no other public name
    bound = {
        name for name, value in vars(merosolve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == {"annotations"}
    assert not set(names) & set(vars(merosolve))


def test_names_without_a_caller_in_the_package_are_gone():
    from merosolve import errors, expsum

    assert "TranscendentalShiftError" not in merosolve.__all__
    assert not hasattr(errors, "TranscendentalShiftError")
    assert not hasattr(expsum.ExpSum, "laurent_at")
    assert "residual_is_zero" not in merosolve.__all__
    assert not hasattr(expsum, "residual_is_zero")
    assert not hasattr(importlib.import_module("merosolve.classify"), "CASE_ORDER")
    # one way to read a value at a point: the Taylor shift
    for module, name in (("ratfunc", "in_excluded_set"), ("errors", "PoleAtPointError"),
                         ("classify", "eq3_residual"), ("classify", "applicable_labels")):
        assert name not in merosolve.__all__
        assert not hasattr(importlib.import_module(f"merosolve.{module}"), name), name
    from merosolve.ratfunc import Poly, RatFunc

    assert not hasattr(RatFunc, "eval_at") and not hasattr(RatFunc, "pole_order_at")
    assert not hasattr(Poly, "eval")


def test_names_only_the_package_or_tests_use_are_not_exported():
    # numeric_residual_bound_ok is exported again once the CLI calls it
    for name in ("guarded_sample_points", "linear_roots", "numeric_residual_bound_ok"):
        assert name not in merosolve.__all__


def test_every_exported_name_is_named_in_readme():
    # named means written as code: in a `span` or a fenced block
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    named = set(re.findall(r"\w+", code))
    assert sorted(set(merosolve.__all__) - named) == []
    assert "poly_gcd" in merosolve.__all__  # the benchmark reads merosolve.poly_gcd


def test_partial_fractions_are_gone():
    # exp-integration and case C find no root of a denominator to decide
    from merosolve import errors, ratfunc

    for name in ("PartialFractionForm", "IrreducibleDenominatorError"):
        assert name not in merosolve.__all__
        assert not hasattr(merosolve, name)
    assert not hasattr(ratfunc, "PartialFractionForm")
    assert not hasattr(errors, "IrreducibleDenominatorError")
    assert not hasattr(ratfunc.RatFunc, "partial_fractions")


# -- every module-level name in the package has a use ------------------------------------

_SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(merosolve.__file__).parent.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names a tree reads: loaded names, attribute names and names imported by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", sorted(_SOURCES))
def test_no_module_level_import_is_unused(module):
    tree = _SOURCES[module]
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    assert sorted(imported - _loaded_names(tree)) == []


@pytest.mark.parametrize("module", sorted(_SOURCES))
def test_no_private_module_level_name_is_unreferenced(module):
    defined = set()
    for node in _SOURCES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set().union(*map(_used_names, _SOURCES.values()))
    assert sorted(private - used) == []

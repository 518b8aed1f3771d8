"""Every name a module of the package imports is used in that module, no
module imports ``dataclasses``, none calls ``eval`` or ``exec``, and importing
them does no polynomial arithmetic."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bridgecover"


def _modules():
    return sorted(f"bridgecover.{path.stem}" for path in PACKAGE.glob("*.py")
                  if path.stem != "__init__")


def unused_imports(source: str):
    """``(line, name)`` of each name that ``source`` imports and never reads,
    where the import's first line carries no ``# noqa``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if ("# noqa" in lines[node.lineno - 1]
                or getattr(node, "module", None) == "__future__"):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found_and_noqa_is_honoured():
    source = ("from __future__ import annotations\n"
              "import io\nimport os  # noqa: F401\n"
              "from typing import (  # noqa\n    Dict,\n)\n"
              "from json import dumps, loads\nprint(loads)\n")
    assert unused_imports(source) == [(2, "io"), (7, "dumps")]


def imported_modules(source: str):
    """The modules ``source`` imports by absolute name, as written."""
    tree = ast.parse(source)
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and not node.level})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    """The package's records are NamedTuples, so no process pays for
    ``dataclasses`` and the ``inspect``, ``ast`` and ``dis`` it loads."""
    assert "dataclasses" not in imported_modules(
        path.read_text(encoding="utf-8"))


def test_importing_every_module_loads_no_dataclasses():
    modules = _modules()
    assert len(modules) == 9
    code = (f"import sys, {', '.join(modules)}\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_calls_eval_or_exec(path):
    """Code is written out, not generated as text and compiled."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & {"eval", "exec"} == set()


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__", "__pow__", "substitute")


def test_importing_every_module_does_no_polynomial_arithmetic():
    """The determinant tables are functions, so no process pays for
    building polynomials it may never read."""
    code = ("import collections\n"
            "from bridgecover.multipoly import MultiPoly\n"
            "calls = collections.Counter()\n"
            "def wrap(name, real):\n"
            "    def counted(*args):\n"
            "        calls[name] += 1\n"
            "        return real(*args)\n"
            "    return counted\n"
            f"for name in {_ARITHMETIC!r}:\n"
            "    setattr(MultiPoly, name, wrap(name, getattr(MultiPoly, name)))\n"
            "assert (MultiPoly.var('q') * 2).terms and calls['__mul__'] == 1\n"
            "calls.clear()\n"
            f"import {', '.join(_modules())}\n"
            "print(dict(calls))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout == "{}\n"

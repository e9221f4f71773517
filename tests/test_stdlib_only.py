"""``src/repro`` imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this keeps that true.
Every absolute import anywhere in a module (function-local ones too) must
name a standard-library module or ``repro`` itself.  Relative imports stay
inside the package and are not checked.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = sys.stdlib_module_names | {"repro"}


def absolute_imports(tree):
    """Yield ``(lineno, top-level module name)`` of each absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def third_party_imports(source, filename="<string>"):
    return [f"{filename}:{lineno}: {name}"
            for lineno, name in absolute_imports(ast.parse(source, filename))
            if name not in ALLOWED]


def test_package_imports_only_stdlib_and_repro():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    problems = [problem for path in paths
                for problem in third_party_imports(
                    path.read_text(), str(path.relative_to(SRC.parent)))]
    assert problems == []


@pytest.mark.parametrize("source", [
    "import networkx as nx",
    "import numpy.linalg",
    "from yaml import safe_load",
    "def lazy():\n    import requests\n",
])
def test_guard_catches_third_party_imports(source):
    assert len(third_party_imports(source)) == 1


@pytest.mark.parametrize("source", [
    "import os.path",
    "from __future__ import annotations",
    "from collections import deque",
    "from repro.isa import assemble",
    "from . import base",
    "from ..isa.program import Program",
])
def test_guard_allows_stdlib_repro_and_relative_imports(source):
    assert third_party_imports(source) == []

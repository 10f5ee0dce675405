"""Every module of the package, every test file and every demo uses each
name it imports.

The package's ``__init__.py`` imports to re-export and is exempt, as are
``__future__`` imports.  A name counts as used when it is read anywhere in
the module's syntax tree, annotations included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pcclone"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                           key=lambda item: item[1])
            if name not in used]


def test_the_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_tests_and_demos_are_scanned():
    assert {p.parent.name for p in SCRIPTS} == {"tests", "demos"}
    assert Path(__file__).resolve() in SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\n", ["line 1: np"]),
    ("from math import pi, tau\nx = pi\n", ["line 1: tau"]),
    ("from math import pi as half_turn\ndef f() -> half_turn: pass\n", []),
    ("from __future__ import annotations\n", []),
    ("from . import sibling\nsibling.run()\n", []),
])
def test_guard_reads_every_import_form(source, expected):
    assert unused_imports(source) == expected

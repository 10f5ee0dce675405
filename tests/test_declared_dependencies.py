"""Every module imports only the dependencies the project declares.

``pyproject.toml`` declares numpy as the one runtime dependency, and pytest
and hypothesis as the test extras.  The package (``src/``) may import the
standard library and numpy; the tests and demos may also import pytest,
hypothesis and local modules: the package and the files beside them.  Other
packages may be installed where the tests run (scipy, pytest-benchmark), so
only this guard keeps them out.  Imports are read from the syntax tree,
those inside functions included; a relative import is local.
"""

import ast
import sys
from pathlib import Path

import pytest

from test_unused_imports import MODULES, SCRIPTS

RUNTIME = {"numpy"}
TEST_EXTRAS = {"pytest", "hypothesis"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def undeclared(path: Path, allowed: set[str]) -> list[str]:
    found = imported_modules(path.read_text(encoding="utf-8"))
    return sorted(found - allowed - set(sys.stdlib_module_names))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_only_the_stdlib_and_numpy(path):
    assert undeclared(path, RUNTIME) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_scripts_import_only_declared_and_local_modules(path):
    local = {"pcclone"} | {p.stem for p in path.parent.glob("*.py")}
    assert undeclared(path, RUNTIME | TEST_EXTRAS | local) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\nimport numpy as np\n", {"os", "numpy"}),
    ("import os.path\n", {"os"}),
    ("from scipy.stats import norm\n", {"scipy"}),
    ("def f():\n    import pytest_benchmark\n", {"pytest_benchmark"}),
    ("from . import sibling\nfrom .fock import Qubit\n", set()),
    ("from __future__ import annotations\n", {"__future__"}),
])
def test_guard_reads_every_import_form(source, expected):
    assert imported_modules(source) == expected


def test_an_undeclared_package_is_reported(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import math\nimport scipy\nfrom pytest_benchmark import plugin\n")
    assert undeclared(path, RUNTIME) == ["pytest_benchmark", "scipy"]

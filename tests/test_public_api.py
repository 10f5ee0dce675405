"""Every name the package exports has a reader outside the tests.

A name that ``pcclone/__init__.py`` binds is public: it must appear as a
word in ``README.md``, in a demo or in the benchmark's scripts.  A name that
only the tests read belongs in the tests, or in its module as a private
name.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "pcclone" / "__init__.py"
READERS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


def bound_names(source: str) -> list[str]:
    """The names a module binds at its top level, by import or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return names


EXPORTS = bound_names(INIT.read_text(encoding="utf-8"))
WORDS = set(re.findall(r"\w+", " ".join(p.read_text(encoding="utf-8") for p in READERS)))


def test_the_exports_and_their_readers_are_found():
    assert len(EXPORTS) > 20 and "run_model" in EXPORTS
    assert READERS[0].is_file()
    assert {p.parent.name for p in READERS[1:]} == {"demos", "perfbench"}


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_has_a_reader_outside_the_tests(name):
    assert name in WORDS, f"{name} is exported but named only by the tests"


@pytest.mark.parametrize("source, expected", [
    ("from .a import b, c as d\n", ["b", "d"]),
    ("import os\n__version__ = '1'\n", ["os", "__version__"]),
    ("def f():\n    from .a import b\n", []),
])
def test_bound_names_reads_the_top_level_only(source, expected):
    assert bound_names(source) == expected

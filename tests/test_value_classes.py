"""Every value class of the package is built one way, and README lists them all.

A value class subclasses ``fock._Checked``: a frozen dataclass whose
constructor runs its ``_checks`` table.  The one unchecked constructor is
``_Checked._trusted``; ``TwoQubitState`` overrides it only to mark its
matrix read-only.  The device bases ``ClonerParams`` and ``_Splitter`` hold
no field and are not dataclasses; their subclasses are the devices.  README's
validation paragraph names every value class.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from pcclone.cloners import ClonerParams, _Splitter
from pcclone.fock import _Checked

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pcclone"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the device bases: their subclasses are the devices, which hold the fields
DEVICE_BASES = {ClonerParams, _Splitter}


def checked_classes() -> set[type]:
    """Every ``_Checked`` subclass the package's modules define."""
    for path in MODULES:
        importlib.import_module(f"pcclone.{path.stem}")
    found, todo = set(), [_Checked]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("pcclone.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def trusted_definitions() -> set[str]:
    """The classes of the package whose bodies define ``_trusted``, and any
    module-level function of that name."""
    owners = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_trusted":
                owners.add(f"{path.stem} (module level)")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owners.update(node.name for item in node.body
                              if isinstance(item, ast.FunctionDef) and item.name == "_trusted")
    return owners


def validation_paragraph() -> str:
    """README's paragraph on where and how values are checked."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("Validation happens where values enter the program")
    return text[start:text.index("\n\n", start)]


def test_the_value_classes_are_found():
    names = {cls.__name__ for cls in checked_classes()}
    assert {"Qubit", "TwoQubitState", "SpecialBSParams", "NoiseConfig",
            "CountingSetup", "ExperimentConfig"} <= names


def test_every_value_class_is_a_frozen_dataclass():
    loose = {cls for cls in checked_classes()
             if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)}
    assert loose == DEVICE_BASES


@pytest.mark.parametrize("cls", sorted(checked_classes() - DEVICE_BASES,
                                        key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_a_trusted_value_holds_its_fields_unchecked(cls):
    # _trusted holds its fields as given, even values the checks refuse
    fields = {field.name: object() for field in dataclasses.fields(cls)}
    if cls.__name__ == "TwoQubitState":
        fields["rho"] = np.full((4, 4), 5.0 + 0j)  # made read-only, not checked
    value = cls._trusted(**fields)
    assert type(value) is cls
    assert all(getattr(value, name) is field for name, field in fields.items())
    if cls.__name__ == "TwoQubitState":
        assert not value.rho.flags.writeable


def test_trusted_is_defined_once_and_overridden_once():
    assert trusted_definitions() == {"_Checked", "TwoQubitState"}


def test_readme_names_every_value_class():
    paragraph = validation_paragraph()
    named = set(re.findall(r"`(\w+)`", paragraph))
    public = {cls.__name__ for cls in checked_classes() if not cls.__name__.startswith("_")}
    assert public - named == set()

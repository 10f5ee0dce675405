"""Every value class of the package is built one way, and README lists them all.

A value class subclasses ``fock._Checked``: a frozen dataclass whose
constructor runs its ``_checks`` table.  The one unchecked constructor is
``_Checked._trusted``; ``TwoQubitState`` overrides it only to mark its
matrix read-only.  The device bases ``ClonerParams`` and ``_Splitter`` hold
no field and are not dataclasses; their subclasses are the devices.  A field
that holds another value class is named in its class's ``_checks`` table.
README's validation paragraph names every value class.
"""

import ast
import dataclasses
import importlib
import re
import types
import typing
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


def value_classes_of(hint) -> set[type]:
    """The value classes that a field annotation names: ``X``, ``X | None``,
    ``Union[X, ...]``, each possibly ``Annotated``."""
    if typing.get_origin(hint) is typing.Annotated:
        hint = typing.get_args(hint)[0]
    union = isinstance(hint, types.UnionType) or typing.get_origin(hint) is typing.Union
    return {member for member in (typing.get_args(hint) if union else (hint,))
            if isinstance(member, type) and issubclass(member, _Checked)}


def value_fields() -> set[str]:
    """``"Class.field"`` of every constructor field of a value class that holds
    another value class (a device is a ``ClonerParams``)."""
    found = set()
    for cls in checked_classes() - DEVICE_BASES:
        hints = typing.get_type_hints(cls, include_extras=True)
        found.update(f"{cls.__name__}.{field.name}" for field in dataclasses.fields(cls)
                     if field.init and value_classes_of(hints[field.name]))
    return found


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


def test_the_fields_that_hold_value_classes_are_found():
    assert {"ExperimentConfig.model", "ExperimentConfig.noise", "ExperimentConfig.counting",
            "ExperimentConfig.output", "CountingSetup.model", "CountingSetup.noise",
            "CountingSetup.input", "CountingOptions.detectors",
            "CompareConfig.output"} <= value_fields()


def test_every_field_that_holds_a_value_class_is_checked():
    # such a field once took any object, which failed later with an AttributeError
    classes = {cls.__name__: cls for cls in checked_classes()}
    unchecked = {name for name in value_fields()
                 if not any(name.split(".")[1] in entry[1:]
                            for entry in classes[name.split(".")[0]]._checks)}
    assert unchecked == set()

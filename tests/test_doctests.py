"""The examples in every censym docstring and in README.md run as shown."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import censym

MODULES = ["censym"] + sorted(
    info.name for info in pkgutil.iter_modules(censym.__path__, "censym.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_readme_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted and result.failed == 0

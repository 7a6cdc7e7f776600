"""The package's attribute for each submodule's name is the submodule itself,
not a function re-exported under that name."""

import importlib
import sys

import pytest

import genxmod

SUBMODULES = (
    "validation",
    "groups",
    "gwa",
    "crossed",
    "cat1",
    "coverlift",
    "search",
    "serialize",
    "fixtures",
    "oracles",
    "cli",
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_name_is_the_submodule(name):
    importlib.import_module(f"genxmod.{name}")
    assert getattr(genxmod, name) is sys.modules[f"genxmod.{name}"]

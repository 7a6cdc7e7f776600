"""Every class built by validation.structure behaves as a frozen dataclass
with slots: immutable, without an instance __dict__, constructed positionally,
by keyword or from its defaults, and compared without its compare=False names."""

import dataclasses
import inspect
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import genxmod
from genxmod.cat1 import identity_gcat1_morphism
from genxmod.coverlift import (
    identity_covering,
    identity_covering_morphism,
    identity_lifting_morphism,
    natural_lifting,
)
from genxmod.crossed import identity_gxmod_morphism
from genxmod.fixtures import gx3, v4_projection_cat1
from genxmod.groups import subgroup
from genxmod.validation import ValidationReport, Violation


def _examples() -> dict:
    x = gx3()
    violation = Violation("gxmod.peiffer", (1, 2), "detail")
    return {
        "Hom": x.alpha,
        "Subgroup": subgroup(x.A.group, [0]),
        "SelfAction": x.A.self_action,
        "GwaObject": x.A,
        "ExtAction": x.action,
        "GXMod": x,
        "GXModMorphism": identity_gxmod_morphism(x),
        "GCat1": v4_projection_cat1(),
        "GCat1Morphism": identity_gcat1_morphism(v4_projection_cat1()),
        "Lifting": natural_lifting(x),
        "Covering": identity_covering(x),
        "LiftingMorphism": identity_lifting_morphism(natural_lifting(x)),
        "CoveringMorphism": identity_covering_morphism(identity_covering(x)),
        "Violation": violation,
        "ValidationReport": ValidationReport("report", (violation,)),
    }


EXAMPLES = _examples()


def _structure_classes() -> set[str]:
    # structure declares its dataclass with init=False and writes its own __init__
    return {
        value.__name__
        for name, module in sys.modules.items()
        if name.startswith("genxmod.")
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == name
        and not value.__dataclass_params__.init
    }


def test_every_structure_class_has_an_example():
    assert _structure_classes() == set(EXAMPLES)
    assert genxmod.GroupTable.__dataclass_params__.init


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_structure_is_frozen_and_has_no_dict(name):
    x = EXAMPLES[name]
    assert not hasattr(x, "__dict__")
    for f in fields(x):
        with pytest.raises(FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(x, f.name)
    with pytest.raises(FrozenInstanceError):
        x.extra = 1
    with pytest.raises(FrozenInstanceError):
        del x.extra


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_structure_is_built_positionally_by_keyword_and_from_defaults(name):
    x = EXAMPLES[name]
    cls = type(x)
    given = {f.name: getattr(x, f.name) for f in fields(x) if f.init}
    assert list(inspect.signature(cls).parameters) == list(given)
    assert cls.__doc__ != f"{cls.__name__}()"
    assert cls(*given.values()) == x
    assert cls(**given) == x
    assert repr(cls(**given)) == repr(x)
    required = [f.name for f in fields(x) if f.init and f.default is dataclasses.MISSING]
    defaulted = {f.name: f.default for f in fields(x) if f.init and f.default is not dataclasses.MISSING}
    from_defaults = cls(*(given[n] for n in required))
    assert from_defaults == cls(*(given[n] for n in required), *defaulted.values())
    for n, default in defaulted.items():
        assert getattr(from_defaults, n) == default
    if required:
        with pytest.raises(TypeError):
            cls(*(given[n] for n in required[:-1]))
    with pytest.raises(TypeError):
        cls(**given, unknown=0)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_eq_and_hash_ignore_the_names(name):
    x = EXAMPLES[name]
    ignored = [f.name for f in fields(x) if f.init and not f.compare]
    assert ignored in ([], ["name"], ["subject"])
    for n in ignored:
        renamed = replace(x, **{n: "renamed"})
        assert getattr(renamed, n) == "renamed"
        assert renamed == x and hash(renamed) == hash(x)

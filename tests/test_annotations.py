"""Every annotation in the package names something the module can resolve."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import rtcheck

MODULES = sorted(m.name for m in pkgutil.iter_modules(rtcheck.__path__))


def _annotated(module):
    """Functions, classes and methods defined in the module itself."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"rtcheck.{name}")
    objects = list(_annotated(module))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)

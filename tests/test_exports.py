"""The package's exported names: each one resolves, none is stale."""

import importlib
import pkgutil

import pytest

import kahleredge

MODULES = sorted(info.name for info in pkgutil.iter_modules(kahleredge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_a_module_exports_resolves(name):
    module = importlib.import_module(f"kahleredge.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_exports_resolves_to_its_module_export():
    """A package-level name is one its defining module exports too, so a
    name deleted from a module cannot linger in the package."""
    assert len(set(kahleredge.__all__)) == len(kahleredge.__all__)
    for name in kahleredge.__all__:
        obj = getattr(kahleredge, name)
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"{name} is not in {obj.__module__}.__all__"

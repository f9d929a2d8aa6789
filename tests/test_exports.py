import importlib
import pkgutil
import types

import pytest

import streamfem

MODULES = sorted(info.name
                 for info in pkgutil.iter_modules(streamfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"streamfem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_public_names_of_their_modules():
    for name, obj in vars(streamfem).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert name in importlib.import_module(obj.__module__).__all__, name

"""Every name a `tenreg` module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import tenreg

MODULES = ["tenreg"] + [f"tenreg.{m.name}" for m in pkgutil.iter_modules(tenreg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_imports(name):
    exported = getattr(importlib.import_module(name), "__all__", ())
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []

"""Every name a specdiff module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import specdiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(specdiff.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(f"specdiff.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

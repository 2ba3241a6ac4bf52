"""Every exported name resolves: a deletion must take its __all__ entry along."""

import importlib
import pkgutil

import pytest

import fracpicard

MODULES = ["fracpicard"] + [
    f"fracpicard.{info.name}" for info in pkgutil.iter_modules(fracpicard.__path__)
]


def test_star_import():
    namespace = {}
    exec("from fracpicard import *", namespace)
    assert set(fracpicard.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

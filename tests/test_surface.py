"""The public surface: each module lists its public functions and classes in
``__all__``, and the package re-exports exactly those names.  Tools that
wrap a module's public API read ``__all__``."""

import inspect

import pytest

import deltaconvex
from deltaconvex import experiments, functions, regularize, spaces, trees

MODULES = [spaces, functions, regularize, trees, experiments]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_public_definitions_listed(mod):
    public = {name for name, obj in vars(mod).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert public <= set(mod.__all__)
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_package_reexports_the_union():
    exported = {name for name, obj in vars(deltaconvex).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    union = set().union(*(mod.__all__ for mod in MODULES))
    assert exported == union
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(deltaconvex, name) is getattr(mod, name)


"""Every exported name resolves, so a deletion cannot leave a stale export.

The traced benchmark looks up each ``__all__`` entry of every module by
name, so an entry naming something deleted would crash it.
"""
import importlib
import inspect
import pkgutil

import pytest

import fedmismatch

MODULES = sorted(m.name for m in pkgutil.iter_modules(fedmismatch.__path__, "fedmismatch."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(name)
    assert [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)] == []


def test_package_names_are_module_exports():
    exported = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        exported.update((attr, getattr(mod, attr)) for attr in getattr(mod, "__all__", ()))
    public = [n for n, v in vars(fedmismatch).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert public
    assert [n for n in public if exported.get(n) is not getattr(fedmismatch, n)] == []

"""Every exported name resolves and has one home.

The traced benchmark looks up each ``__all__`` entry of every module by
name, so an entry naming something deleted would crash it. A module
exports only what it defines itself, and the package namespace holds its
modules alone, so each name has one import path: its defining module.
"""
import ast
import importlib
import inspect
import pkgutil

import pytest

import fedmismatch

MODULES = sorted(m.name for m in pkgutil.iter_modules(fedmismatch.__path__, "fedmismatch."))


def _defined_names(mod) -> set[str]:
    """Names bound at the top level of ``mod``'s source by a def, a class or
    an assignment; an import binds none."""
    names = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(name)
    assert [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)] == []


def test_each_name_has_one_home():
    foreign = []
    for name in MODULES:
        mod = importlib.import_module(name)
        defined = _defined_names(mod)
        foreign += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ()) if attr not in defined]
    assert foreign == []
    public = {n: v for n, v in vars(fedmismatch).items() if not n.startswith("_")}
    assert public and all(inspect.ismodule(v) and v.__name__ in MODULES for v in public.values())
    assert fedmismatch.__version__

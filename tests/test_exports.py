"""Every module's __all__ names what it defines, once each."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import kdfc_snow

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(kdfc_snow.__path__, "kdfc_snow.")
)


@pytest.mark.parametrize("name", ["kdfc_snow"] + MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined {missing}"


def test_package_reexports_are_public_where_defined():
    # the module each name of kdfc_snow.__all__ is imported from lists it too
    source = {}
    for node in ast.walk(ast.parse(inspect.getsource(kdfc_snow))):
        if isinstance(node, ast.ImportFrom):
            source.update((alias.name, node.module) for alias in node.names)
    assert set(kdfc_snow.__all__) - set(source) == {"__version__"}
    for attr in kdfc_snow.__all__:
        if attr in source:
            home = source[attr]
            assert attr in importlib.import_module(home).__all__, (
                f"kdfc_snow re-exports {attr}, which {home}.__all__ does not list"
            )

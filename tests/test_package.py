import importlib
import pkgutil

import pytest

import stochmaxwell

MODULES = ["stochmaxwell"] + [
    f"stochmaxwell.{m.name}" for m in pkgutil.iter_modules(stochmaxwell.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

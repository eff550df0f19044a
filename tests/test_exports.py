"""Every name the package and its modules export resolves to an attribute.

``from damlink.x import *`` and documentation read ``__all__``, so a name
left there after its definition is deleted would only fail at import time
in user code.
"""

import importlib
import pkgutil

import pytest

import damlink

MODULES = ["damlink"] + [f"damlink.{m.name}" for m in pkgutil.iter_modules(damlink.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"

import importlib
import pkgutil

import pytest

import rdcopt

MODULES = ["rdcopt"] + [f"rdcopt.{info.name}" for info in pkgutil.iter_modules(rdcopt.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # a deletion that leaves its name in __all__ would otherwise break only `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"

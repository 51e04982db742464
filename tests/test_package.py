import importlib
import pkgutil

import optising


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(optising.__path__):
        mod = importlib.import_module(f"optising.{info.name}")
        missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
        assert not missing, f"optising.{info.name}.__all__ names {missing}"

import importlib
import pkgutil

import mdncee


def test_every_exported_name_resolves():
    modules = [mdncee] + [importlib.import_module(f"mdncee.{info.name}")
                          for info in pkgutil.iter_modules(mdncee.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []

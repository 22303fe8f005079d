import importlib
import pkgutil
from pathlib import Path

import mdncee


def test_every_exported_name_resolves():
    modules = [mdncee] + [importlib.import_module(f"mdncee.{info.name}")
                          for info in pkgutil.iter_modules(mdncee.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(monkeypatch, capsys):
    # the python block under "Library entry points", run from the repo root
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out

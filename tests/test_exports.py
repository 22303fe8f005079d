import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mdncee

MODULES = [mdncee] + [importlib.import_module(f"mdncee.{info.name}")
                      for info in pkgutil.iter_modules(mdncee.__path__)]


def test_every_exported_name_resolves():
    stale = [f"{module.__name__}.{name}" for module in MODULES
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def _takers(*params) -> set[str]:
    """The exported functions and methods of exported classes that take every
    one of params."""
    takers = set()
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            functions = ([m for _, m in inspect.getmembers(obj, inspect.isfunction)]
                         if inspect.isclass(obj) else [obj] if inspect.isfunction(obj) else [])
            takers.update(fn.__qualname__ for fn in functions
                          if set(params) <= set(inspect.signature(fn).parameters))
    return takers


def test_only_energy_budget_ok_takes_the_budget_switch():
    # the scenario carries the budget rule (user_energy_in_budget); only the
    # check of an energy breakdown, which has no scenario, takes it as an argument
    assert _takers("include_user_energy") == {"energy_budget_ok"}


def test_only_assemble_primal_takes_a_schedule_and_a_target():
    # a fixed-schedule problem is assembled once, by assemble_primal, and
    # every later step takes the assembled PrimalProblem; the records
    # PrimalProblem and Solution hold both
    assert _takers("schedule", "target") == {"assemble_primal", "PrimalProblem.__init__",
                                             "Solution.__init__"}


def _readers(attr: str) -> set[str]:
    """The functions and methods of mdncee whose code reads .attr, by
    qualified name within their module."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                readers.add(".".join(scope))
            visit(child, scope)

    for module in MODULES:
        visit(ast.parse(inspect.getsource(module)), [])
    return readers


def test_only_the_barriers_read_the_outage_term_matrices():
    # outside a barrier the outage is read by the counting recursion
    # (PrimalProblem.outage_at), one evaluator with no tolerance bridging
    # it to a second: the term matrices serve the primal's barrier, the
    # max-slack barrier and the V' posynomial a barrier minimizes
    from mdncee import convex_solver

    assert _readers("outage_pos") == {"solve_primal", "_max_slack_point", "PrimalProblem.vprime"}
    assert not hasattr(convex_solver, "CORNER_REL_TOL")


def test_import_loads_no_third_party_module_but_numpy():
    # numpy is the one runtime dependency; scipy and hypothesis serve the
    # tests alone. The modules a fresh interpreter loads before the import
    # (site hooks) do not count
    code = ("import sys; before = set(sys.modules); import mdncee; "
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))")
    src = str(Path(mdncee.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True).stdout.split()
    assert set(loaded) - sys.stdlib_module_names == {"mdncee", "numpy"}


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(monkeypatch, capsys):
    # the python block under "Library entry points", run from the repo root
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out

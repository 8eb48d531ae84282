"""Every module-level import in src/fdilab is used by the module that makes it."""

import ast
from pathlib import Path

import pytest

import fdilab

PACKAGE = Path(fdilab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
# perfbench's traced pass wraps attack.solve_dc_state, a name attack never calls
EXEMPT = {("attack", "solve_dc_state")}


def unused_imports(source: str) -> set:
    """Names bound by the top-level imports of source that no Name node reads;
    the strings of a top-level __all__ count as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_check_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import inf, pi\n"
              "from .a import B\n__all__ = ['B']\n"
              "def f(x: np.ndarray) -> float:\n    return inf\n")
    assert unused_imports(source) == {"os", "pi"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    unused = {name for name in unused_imports(path.read_text())
              if (path.stem, name) not in EXEMPT}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_every_exemption_is_still_an_unused_import():
    for module, name in EXEMPT:
        assert name in unused_imports((PACKAGE / f"{module}.py").read_text())

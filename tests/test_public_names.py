"""Every public module-level name of the library has a caller.

A public function, class or constant of `src/causalqed/*.py` must be
named somewhere in the library, a demo or `benchmark/*.py` besides its
own definition: as a loaded name, an attribute, an import, or a string
(the CLI names its cmd_* functions by string).  Tests do not count, so
API that only tests reach fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "causalqed").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _named(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_library_name_has_a_caller():
    named = {name for path in CALLERS for name in _named(ast.parse(path.read_text()))}
    unused = [f"{path.stem}.{name}" for path in LIBRARY
              for name in _defined(ast.parse(path.read_text()))
              if not name.startswith("_") and name not in named]
    assert unused == []

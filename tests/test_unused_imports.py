"""No module of the package imports a name it does not use, or defines a
private module-level name that it never uses.

For imports, `__init__.py` is skipped, since its imports are the package's
re-exports, and so are `from __future__` imports. A private name is a
module-level function, class or assigned name with one leading underscore;
tests may read it too, but the module itself must use it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symext"


def _loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _loaded_names(tree)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    used = _loaded_names(tree)
    return sorted(f"line {line}: {name}" for name, line in defined.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(b)\n"
    assert unused_imports(source) == ["line 2: os", "line 4: c"]


def test_the_check_finds_an_unused_private_name():
    source = (
        "_USED = 1\n_LEFT, public = 2, 3\n__all__ = []\n"
        "def _helper():\n    return _USED\n"
        "class _Box:\n    pass\n"
        "def run():\n    return _helper()\n"
    )
    assert unused_private_names(source) == ["line 2: _LEFT", "line 6: _Box"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_private_names(path):
    assert unused_private_names((SRC / path).read_text(encoding="utf-8")) == []

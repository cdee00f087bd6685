"""No module of the package imports a name it does not use.

`__init__.py` is skipped, since its imports are the package's re-exports, and
so are `from __future__` imports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symext"


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(b)\n"
    assert unused_imports(source) == ["line 2: os", "line 4: c"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []

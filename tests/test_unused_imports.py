"""No module of the package imports a name it does not use, defines a
private module-level name that it never uses, or defines a public function
or class that only tests call.

For imports, `__init__.py` is skipped, since its imports are the package's
re-exports, and so are `from __future__` imports. A private name is a
module-level function, class or assigned name with one leading underscore;
tests may read it too, but the module itself must use it. A private method,
a `def` with one leading underscore in the body of a module-level class,
must be read somewhere in the package outside its own definition; tests may
read it too. A public
module-level function or class must be read somewhere in the package outside
its own definition, `__init__.py` not counted, or be named in the benchmark
(`bench/*.py`) as a name, an attribute or a string: the benchmark's span
table names the functions it wraps by string.

The package's exports, `symext.__all__`, are exactly the names that the
Library section of README.md lists as exported, so that an export cannot be
added or kept without the README saying so.
"""

import ast
import pathlib
import re

import pytest

import symext

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symext"


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


def _references(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names read, attributes taken and (with strings) string constants in
    tree, leaving out the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def public_names_only_tests_use(package: dict[str, str], bench: list[str]) -> list[str]:
    """Public module-level functions and classes of package (file name to
    source) that no other part of it reads and bench never names."""
    trees = {name: ast.parse(source) for name, source in package.items() if name != "__init__.py"}
    named_in_bench = set().union(*(_references(ast.parse(source), strings=True) for source in bench))
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in named_in_bench:
                continue
            if not any(node.name in _references(other, skip=node) for other in trees.values()):
                unused.append(f"{module} line {node.lineno}: {node.name}")
    return unused


def unused_private_methods(package: dict[str, str]) -> list[str]:
    """Private methods of the module-level classes of package (file name to
    source) that no part of it reads outside their own definition."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    unused = []
    for module, tree in sorted(trees.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not node.name.startswith("_") or node.name.startswith("__"):
                    continue
                if not any(node.name in _references(other, skip=node) for other in trees.values()):
                    unused.append(f"{module} line {node.lineno}: {cls.name}.{node.name}")
    return unused


def readme_exports(readme: str) -> list[str]:
    """The names in the README's sentence "The package exports N names: ...",
    after checking that N is their count."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    count, sentence = re.search(r"The package exports (\d+) names:(.*?)\.(?:\s|$)", section, re.S).groups()
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) == int(count), (count, names)
    return names


def test_the_check_reads_the_readme_exports():
    readme = (
        "# x\n\n## Library\n\nIt is importable. The package exports 2 names: `a`\nand `b_c`. Also `d`.\n"
        "\n## Other\n\nThe package exports 1 names: `e`.\n"
    )
    assert readme_exports(readme) == ["a", "b_c"]


def test_the_readme_lists_every_export_and_no_other():
    exported = readme_exports((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(exported) == sorted(symext.__all__)
    assert len(set(symext.__all__)) == len(symext.__all__)


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


def test_the_check_finds_a_public_name_only_tests_use():
    package = {
        "__init__.py": "from .a import helper, kept, traced, Box\n",
        "a.py": (
            "def helper():\n    return helper()\n"
            "def kept():\n    return 1\n"
            "def traced():\n    return 2\n"
            "class Box:\n    pass\n"
            "def _private():\n    return kept()\n"
        ),
        "b.py": "from . import a\nVALUE = a.Box\n",
    }
    bench = ['TARGETS = (("symext.a", "traced"),)\n']
    # a call from its own body, or an import in __init__.py, is not a use
    assert public_names_only_tests_use(package, bench) == ["a.py line 1: helper"]


def test_the_check_finds_an_unused_private_method():
    package = {
        "a.py": (
            "class Box:\n"
            "    def __init__(self):\n        self._fill()\n"
            "    def _fill(self):\n        pass\n"
            "    @classmethod\n    def _made(cls):\n        return cls.__new__(cls)\n"
            "    def _again(self):\n        return self._again()\n"
            "    def _left(self):\n        pass\n"
            "def _helper():\n    pass\n"
        ),
        "b.py": "from .a import Box\nVALUE = Box._made()\n",
    }
    # a call from its own body is not a use; a read from another module is
    assert unused_private_methods(package) == ["a.py line 9: Box._again", "a.py line 11: Box._left"]


def test_no_private_method_is_left_unread():
    package = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unused_private_methods(package) == []


def test_no_public_name_is_used_by_tests_alone():
    package = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    bench = [p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")]
    assert public_names_only_tests_use(package, bench) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_private_names(path):
    assert unused_private_names((SRC / path).read_text(encoding="utf-8")) == []

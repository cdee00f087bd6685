"""No module of the package reads the process environment: its size caps
are constants, so the same call gives the same answer in every process.

A read is an `environ`, `environb`, `getenv` or `getenvb` attribute, as in
`os.environ.get(...)`, or one of those names imported from `os`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symext"
_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _READERS:
            reads.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"line {node.lineno}: {a.name}" for a in node.names if a.name in _READERS]
    return reads


def test_the_check_finds_an_environment_read():
    source = "import os\nfrom os import getenv, path\nK = int(os.environ.get('K', 12))\nos.path.join('a')\n"
    assert environment_reads(source) == ["line 2: getenv", "line 3: environ"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_the_environment(path):
    assert environment_reads((SRC / path).read_text(encoding="utf-8")) == []

"""No module of the package but `linalg` factorizes through numpy.linalg's
wrappers: every Cholesky test, eigh and eigvalsh goes through the seam in
`symext.linalg` (`is_positive_definite`, `eigh`, `eigvalsh`), which calls
numpy's gufuncs directly with the same results bit for bit.

A wrapper call is a `cholesky`, `eigh` or `eigvalsh` attribute of a
`linalg` attribute or name, as in `np.linalg.eigh(...)`, or one of those
names imported from `numpy.linalg`. Other numpy.linalg functions, such as
the `pinv` of the cached constraint maps, are not wrappers of the seam.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symext"
SEAM = "linalg.py"
_WRAPPERS = {"cholesky", "eigh", "eigvalsh"}


def wrapper_calls(source: str) -> list[str]:
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _WRAPPERS:
            base = node.value
            if (isinstance(base, ast.Attribute) and base.attr == "linalg") or (
                isinstance(base, ast.Name) and base.id == "linalg"
            ):
                calls.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            calls += [f"line {node.lineno}: {a.name}" for a in node.names if a.name in _WRAPPERS]
    return calls


def test_the_check_finds_a_wrapper_call():
    source = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "from numpy.linalg import eigvalsh, pinv\n"
        "w, u = np.linalg.eigh(x)\n"
        "linalg.cholesky(x)\n"
        "np.linalg.pinv(x)\n"
        "from .linalg import eigh\n"
        "eigh(x)\n"
    )
    assert wrapper_calls(source) == ["line 3: eigvalsh", "line 4: eigh", "line 5: cholesky"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != SEAM))
def test_no_module_but_the_seam_calls_a_numpy_linalg_wrapper(path):
    assert wrapper_calls((SRC / path).read_text(encoding="utf-8")) == []

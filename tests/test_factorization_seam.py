"""No module of the package but `linalg` factorizes through numpy.linalg's
wrappers: every Cholesky test, eigh and eigvalsh goes through the seam in
`symext.linalg` (`is_positive_definite`, `eigh`, `eigvalsh`), which calls
numpy's gufuncs directly with the same results bit for bit.

A wrapper call is a `cholesky`, `eigh` or `eigvalsh` attribute of a
`linalg` attribute or name, as in `np.linalg.eigh(...)`, or one of those
names imported from `numpy.linalg`. Other numpy.linalg functions, such as
the `pinv` of the cached constraint maps, are not wrappers of the seam.

The seam is also the one module that imports private numpy names, and it
imports exactly three: `numpy.linalg._umath_linalg`, and
`numpy._core.umath`'s `_make_extobj` and `_extobj_contextvar`. A private
name is one imported by an absolute import from numpy whose imported name,
or a part of whose module path, starts with `_`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symext"
SEAM = "linalg.py"
_WRAPPERS = {"cholesky", "eigh", "eigvalsh"}
_PRIVATE_NUMPY = {
    "linalg.py: numpy.linalg._umath_linalg",
    "linalg.py: numpy._core.umath._make_extobj",
    "linalg.py: numpy._core.umath._extobj_contextvar",
}


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


def private_numpy_names(source: str) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{a.name}" for a in node.names]
    return [n for n in names if n.split(".")[0] == "numpy" and any(p.startswith("_") for p in n.split("."))]


def test_the_check_finds_a_private_numpy_name():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import numpy._core.umath as um\n"
        "from numpy import _private, ndarray\n"
        "from numpy.linalg import LinAlgError, _umath_linalg\n"
        "from numpy._core import multiarray\n"
        "from ._numpy import _x\n"
        "from numpyish import _y\n"
    )
    assert private_numpy_names(source) == [
        "numpy._core.umath",
        "numpy._private",
        "numpy.linalg._umath_linalg",
        "numpy._core.multiarray",
    ]


def test_only_the_seam_imports_private_numpy_names_and_only_three():
    found = {f"{p.name}: {n}" for p in SRC.glob("*.py") for n in private_numpy_names(p.read_text(encoding="utf-8"))}
    assert found == _PRIVATE_NUMPY

"""The statements of the package that a pytest run never executes.

Run with the package to trace on the path, for example

    PYTHONPATH=src python tools/line_trace.py [pytest arguments]

With no arguments it runs the tier-1 suite, the testpaths of
pyproject.toml (tests and bench). pytest runs in this process under
`sys.settrace` and `threading.settrace`, so the package must not be imported
before the run starts; a subprocess that a test starts is not traced. The
tool prints `file:line: source` for each statement of the package that
never ran, then a count and pytest's exit code, which is also its own.

A statement is an AST statement: docstrings, function and class
definitions, imports and `global` or `nonlocal` declarations are not
counted. A statement ran when Python reported a line event on one of its
own lines: every line of a simple statement, and the header lines, before
the first statement of its body, of a compound one. The tool needs
pytest and the standard library only, no coverage package.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER1 = ("tests", "bench")
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, own lines) of each counted statement of source, in line order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring, or a bare string, runs no code
        body = getattr(node, "body", None)
        end = body[0].lineno if body else node.end_lineno + 1
        out.append((node.lineno, range(node.lineno, max(end, node.lineno + 1))))
    return sorted(out, key=lambda item: item[0])


def trace_run(package: pathlib.Path, args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for args, and the lines run in each file of package."""
    seen: dict[str, set[int]] = {str(path): set() for path in package.glob("*.py")}

    def on_call(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("symext")
    package = pathlib.Path(spec.origin).parent
    code, seen = trace_run(package, argv or ["-q", "-p", "no:cacheprovider", *(str(ROOT / p) for p in TIER1)])
    missed = total = 0
    for name in sorted(seen):
        path = pathlib.Path(name)
        source = path.read_text()
        text = source.splitlines()
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        for first, own in statements(source):
            total += 1
            if not seen[name].intersection(own):
                missed += 1
                print(f"{shown}:{first}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

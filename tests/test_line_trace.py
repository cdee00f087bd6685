"""tools/line_trace.py counts the statements that run code, each with the
lines on which a line event means that it ran."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"


def _tool():
    spec = importlib.util.spec_from_file_location("line_trace", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Docstring."""
import os
from math import pi


def f(x):
    """Docstring."""
    global y
    if (x
            and pi):
        return (
            1)
    try:
        y = os.sep
    except OSError:
        pass
    return 0
'''


def test_statements_skip_docstrings_definitions_imports_and_declarations():
    got = {first: list(own) for first, own in _tool().statements(SOURCE)}
    # an if owns its header lines, a simple statement all of its lines, and
    # a try its own line; an except clause is no statement, its body is
    assert got == {9: [9, 10], 11: [11, 12], 13: [13], 14: [14], 16: [16], 17: [17]}

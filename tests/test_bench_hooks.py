"""The benchmark's tracer (bench/spans.py) wraps symext functions found by
name. A renamed function would leave its layer silently unmeasured, so every
name must resolve, and uninstalling must put every original back.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

import symext
import symext.cli  # noqa: F401  (the last module the tracer patches)

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_function_resolves():
    spans = _spans()
    for home, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(home), attr, None)), (home, attr)
    home, attr, _, _ = spans.SOLVER_ONLY
    assert callable(getattr(importlib.import_module(home), attr, None)), (home, attr)


def test_install_and_uninstall_restore_every_patched_attribute():
    spans = _spans()
    modules = {n: m for n, m in sys.modules.items() if n == "symext" or n.startswith("symext.")}
    names = {attr for _, attr, _, _ in spans.TARGETS} | {spans.SOLVER_ONLY[1]}
    before = {(n, attr): getattr(m, attr) for n, m in modules.items() for attr in names if hasattr(m, attr)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {key for key, fn in before.items() if getattr(modules[key[0]], key[1]) is not fn}
        for home, attr, _, _ in spans.TARGETS:
            assert (home, attr) in patched, (home, attr)
        # a wrapped call records its span
        modules["symext.schur"].build_schur_basis(2)
        assert "schur.basis" in tracer.layers
    finally:
        tracer.uninstall()
    assert {key for key, fn in before.items() if getattr(modules[key[0]], key[1]) is not fn} == set()


def test_the_tracer_counts_each_solve_once():
    # each public solve calls the private one, never another public name, so
    # a traced solve adds its DR iterations to the count once
    spans = _spans()
    solver = sys.modules["symext.solver"]
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    werner = symext.DensityMatrix(0.6 * np.outer(psi, psi) + 0.1 * np.eye(4), (2, 2))
    qutrit = solver.qutrit_counterexample()[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, args in (("solve_bosonic", (werner, 3)), ("solve_bosonic_k2_generic", (qutrit,))):
            tracer.begin_op(0)
            report = getattr(solver, name)(*args)
            assert tracer.op_counts["solver.dr_iterations"] == report.iterations, name
            assert tracer.op_counts["solver.solve_calls"] == 1, name
    finally:
        tracer.uninstall()

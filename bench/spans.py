"""Spans and counts around the calls into symext's modules.

The tracer replaces chosen functions, in every symext module that binds
them, with wrappers that record a span (layer, operation, parent span,
start, end) and the counts measured at that boundary. Spans stay in memory
until `write`. Per operation it also keeps each layer's time, counting only
the outermost span of a layer, so a layer that calls itself is not counted
twice.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


_RAISED = object()  # the result a hook sees when the call raised


def _dr_iterations(tracer, args, kwargs, result):
    if result is not _RAISED:
        tracer.count("solver.dr_iterations", result.iterations)


def _bytes_written(tracer, args, kwargs, result):
    if result is not _RAISED:
        tracer.count("io.bytes_written", os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None)))


def _bytes_read(tracer, args, kwargs, result):
    # a file read whole and then rejected still counts
    tracer.count("io.bytes_read", os.path.getsize(kwargs.get("path", args[0] if args else None)))


# (defining module, function, layer, hook run when the call ends)
TARGETS = (
    ("symext.solver", "solve_symmetric", "solver.solve", _dr_iterations),
    ("symext.solver", "solve_bosonic", "solver.solve", _dr_iterations),
    ("symext.solver", "solve_bosonic_k2_generic", "solver.solve", _dr_iterations),
    ("symext.convert", "sym_to_bos", "convert.sym_to_bos", None),
    ("symext.convert", "verify_extension", "convert.verify", None),
    ("symext.convert", "tilde_state", "convert.tilde", None),
    ("symext.blocks", "gen_random_extendible", "blocks.gen", None),
    ("symext.blocks", "blocks_to_global", "blocks.glue", None),
    ("symext.blocks", "global_to_blocks", "blocks.glue", None),
    ("symext.schur", "build_schur_basis", "schur.basis", None),
    ("symext.io", "save_state", "io.save", _bytes_written),
    ("symext.io", "save_bosonic", "io.save", _bytes_written),
    ("symext.io", "save_blocks", "io.save", _bytes_written),
    ("symext.io", "load_state", "io.load", None),
    ("symext.io", "load_extension", "io.load", None),
    ("symext.io", "load_blocks", "io.load", _bytes_read),
    ("symext.io", "load_matrix_file", "io.load", _bytes_read),
    ("symext.cli", "run_command", lambda args: "cli." + str(args[0][0]), None),
)
# the constraint-map assembly: only the solver's calls, not the marginals
# that conversion and verification compute with the same function
SOLVER_ONLY = ("symext.blocks", "raw_marginal_from_blocks", "blocks.raw_marginal", "symext.solver")


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[list] = []  # [layer index, operation, parent span or -1, start, end]
        self.op = -1
        self.op_times: dict[str, float] = defaultdict(float)
        self.op_counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_times = defaultdict(float)
        self.op_counts = defaultdict(int)

    def count(self, name: str, n: int) -> None:
        self.op_counts[name] += int(n)

    def call(self, layer: str, fn, args, kwargs, hook=None):
        """Run fn inside a span of `layer`."""
        if layer not in self.layers:
            self.layers.append(layer)
        idx = len(self.spans)
        start = time.perf_counter()
        self.spans.append([self.layers.index(layer), self.op, self._stack[-1] if self._stack else -1, start - self._t0, None])
        self._stack.append(idx)
        self._depth[layer] += 1
        result = _RAISED
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[layer] -= 1
            self.spans[idx][4] = end - self._t0
            if self._depth[layer] == 0:
                self.op_times[layer] += end - start
                self.op_counts[layer + "_calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)

    def _wrap(self, layer, fn, hook):
        def wrapper(*args, **kwargs):
            return self.call(layer(args) if callable(layer) else layer, fn, args, kwargs, hook)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "symext" or n.startswith("symext.")]
        for home, attr, layer, hook in TARGETS:
            fn = getattr(sys.modules[home], attr)
            wrapper = self._wrap(layer, fn, hook)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        home, attr, layer, caller = SOLVER_ONLY
        fn = getattr(sys.modules[home], attr)
        self._patches.append((sys.modules[caller], attr, fn))
        setattr(sys.modules[caller], attr, self._wrap(layer, fn, None))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, layers=self.layers, span_fields=["layer", "operation", "parent", "start_s", "end_s"], spans=self.spans)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")

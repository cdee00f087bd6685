"""Command-line front end.

Every subcommand prints a report whose content above the "--- timings ---"
marker is a deterministic function of the arguments and input files; wall
times go below the marker; with --help the help text is the report. Exit
codes: 0 FEASIBLE/PASS or help, 2 INFEASIBLE/FAIL, 3 UNDECIDED, 1 usage or
file errors.

check-sym, check-bos and check-bos2 share one handler and one solve,
`solver.solve_bosonic`. check-sym takes a qubit B side only: there a
k-symmetric extension exists if and only if a k-bosonic one does, so it
prints the report and writes the certificate of check-bos. check-bos takes
any B dimension, read from the input file, and check-bos2 --dB D is its
k = 2 spelling, with D checked against the file.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time

from . import io as mio
from .blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    BlockState,
    gen_random_extendible,
    global_to_blocks,
)
from .convert import BosonicState, is_bosonic_layout, sym_to_bos, tilde_state, verify_extension
from .linalg import DensityMatrix
from .solver import FEASIBLE, INFEASIBLE, SolverReport, solve_bosonic, solve_symmetric

_MARKER = "--- timings ---"


class _UsageError(Exception):
    pass


class _Help(Exception):
    """--help was given; the message is the help text."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a fixed width, so that the help text does not depend on the terminal
        kwargs.setdefault("formatter_class", functools.partial(argparse.HelpFormatter, width=80))
        super().__init__(*args, **kwargs)
        # a negative number in any form float() reads, like -1e-8 or -inf, is a
        # value, not an option
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

    # exit code 1 for bad usage, and no direct sys.exit from library calls
    def error(self, message):
        raise _UsageError(message)

    # --help makes the help text the report, with exit code 0
    def print_help(self, file=None):
        raise _Help(self.format_help())


def _num(x: float) -> str:
    return format(float(x), ".6e")


def _status_code(status: str) -> int:
    return {FEASIBLE: 0, INFEASIBLE: 2}.get(status, 3)


def _solver_lines(report: SolverReport, rho: DensityMatrix) -> list[str]:
    lines = [
        f"status: {report.status}",
        f"residual: {_num(report.residual)}",
        f"gap_estimate: {_num(report.gap_estimate)}",
        f"iterations: {report.iterations}",
    ]
    if report.witness is not None:
        lines.append(f"witness: tr(W rho) + c = {_num(report.witness.value(rho))}")
    return lines


def _load_bipartite(path, expect_db: int | None = None) -> DensityMatrix:
    state = mio.load_state(path)
    if len(state.dims) != 2:
        raise _UsageError(f"{path}: expected a bipartite state, layout is {list(state.dims)}")
    if expect_db is not None and state.dims[1] != expect_db:
        raise _UsageError(f"{path}: B dimension is {state.dims[1]}, expected {expect_db}")
    return state


def _cmd_check(args, lines, timings):
    """A block certificate for a qubit B side, a state on A tensor Sym^k(C^dB) otherwise."""
    rho = _load_bipartite(args.infile, expect_db=args.dB)
    t0 = time.perf_counter()
    report = solve_bosonic(rho, args.k)
    timings.append(("solve", time.perf_counter() - t0))
    lines += _solver_lines(report, rho)
    if report.certificate is not None and args.cert:
        if isinstance(report.certificate, BlockState):
            mio.save_blocks(report.certificate, args.cert, metadata={"k": args.k})
        else:
            mio.save_state(report.certificate, args.cert, metadata={"dB": rho.dims[1], "k": args.k})
        lines.append(f"certificate: {args.cert}")
    return _status_code(report.status)


def _cmd_convert(args, lines, timings):
    """Convert a block certificate, a bipartite state (solved for a witness
    first) or a full-space extension; each input note follows its step."""
    path, k = args.infile, args.k
    t0 = time.perf_counter()
    state = mio.load_extension(path)
    if isinstance(state, BosonicState):
        raise _UsageError(f"{path}: a bosonic state is not convertible; give a block certificate or a plain state")
    if isinstance(state, BlockState):
        if state.k != k:
            raise _UsageError(f"{path}: certificate is for k={state.k}, not k={k}")
        lines.append("input: block certificate")
    elif len(state.dims) == 2 and state.dims[1] == 2 and k != 1:
        report = solve_symmetric(state, k)
        lines.append("input: bipartite state, solving for a witness")
        lines += _solver_lines(report, state)
        if report.certificate is None:
            return _status_code(report.status)
        state = report.certificate
    elif len(state.dims) == k + 1 and all(d == 2 for d in state.dims[1:]):
        state = global_to_blocks(state)
        lines.append("input: full-space extension")
    else:
        raise _UsageError(f"{path}: layout {list(state.dims)} is not convertible for k={k}")
    sigma = sym_to_bos(state)
    timings.append(("convert", time.perf_counter() - t0))
    mio.save_bosonic(sigma, args.out, metadata={"k": k})
    lines.append(f"output: {args.out}")
    lines.append("status: PASS")
    return 0


def _cmd_verify(args, lines, timings):
    # trace and positivity are measured against --tol below, not refused at load
    ext = mio.load_extension(args.ext, checked=False)
    rho = _load_bipartite(args.marginal)
    bosonic_input = is_bosonic_layout(ext, rho, args.k)
    layout = "bosonic" if bosonic_input else "blocks" if isinstance(ext, BlockState) else "full-space"
    lines.append(f"layout: {layout}")
    t0 = time.perf_counter()
    report = verify_extension(ext, rho, args.k, tol=args.tol)
    timings.append(("verify", time.perf_counter() - t0))

    def flag(ok):
        return "pass" if ok else "FAIL"

    def measured(ok, quantity, value):
        # weight and sector coordinates hold these properties by construction
        return "structural" if report.by_construction else f"{flag(ok)} ({quantity} {_num(value)})"

    lines.append(f"psd: {flag(report.psd_ok)} (min eigenvalue {_num(report.min_eigenvalue)})")
    lines.append(f"trace: {flag(report.trace_ok)} (deviation {_num(report.trace_deviation)})")
    lines.append(f"marginal: {flag(report.marginal_ok)} (deviation {_num(report.marginal_deviation)})")
    lines.append(f"invariance: {measured(report.invariance_ok, 'deviation', report.invariance_deviation)}")
    if bosonic_input:
        lines.append(f"support: {measured(report.support_ok, 'overlap', report.nonsymmetric_overlap)}")
        ok = report.bosonic_ok
    else:
        lines.append(f"support: skipped ({layout} layout)")
        ok = report.symmetric_ok
    lines.append(f"status: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_tilde(args, lines, timings):
    rho = _load_bipartite(args.infile)
    t0 = time.perf_counter()
    report = tilde_state(rho, args.k)
    timings.append(("tilde", time.perf_counter() - t0))
    lines.append(f"pt_min_eigenvalue: {_num(report.pt_min_eigenvalue)}")
    lines.append(f"ppt: {'yes' if report.ppt else 'no'}")
    if args.out:
        mio.save_state(report.state, args.out, metadata={"k": args.k, "tilde": True})
        lines.append(f"output: {args.out}")
    lines.append(f"status: {'PASS' if report.ppt else 'FAIL'}")
    return 0 if report.ppt else 2


def _cmd_gen(args, lines, timings):
    t0 = time.perf_counter()
    rho, witness = gen_random_extendible(args.k, args.dA, args.seed, args.profile)
    timings.append(("gen", time.perf_counter() - t0))
    meta = {"k": args.k, "dA": args.dA, "seed": args.seed, "profile": args.profile}
    mio.save_state(rho, args.out, metadata=meta)
    lines.append(f"output: {args.out}")
    if args.witness:
        mio.save_blocks(witness, args.witness, metadata=meta)
        lines.append(f"witness: {args.witness}")
    lines.append("status: PASS")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command parser, built on first use and shared by every call.

    Parsing reads the parser and never changes it, so one instance serves
    all calls of run_command. Its `commands` maps each command name to the
    command's own parser, the one the top-level parser hands the rest of the
    arguments to.
    """
    parser = _Parser(prog="symext", description="symmetric and bosonic extendibility of bipartite states")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        return p

    for name, size, helptext in (
        ("check-sym", "--k", "decide k-symmetric extendibility (qubit B)"),
        ("check-bos", "--k", "decide k-bosonic extendibility for any B dimension"),
        ("check-bos2", "--dB", "decide 2-bosonic extendibility: check-bos --k 2, for B of dimension dB"),
    ):
        p = add(name, _cmd_check, helptext)
        p.set_defaults(k=2, dB=2 if name == "check-sym" else None)
        p.add_argument(size, type=int, required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--cert", default=None, help="write the certificate here when feasible")

    p = add("convert", _cmd_convert, "produce a bosonic extension from a state, certificate, or extension")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("verify", _cmd_verify, "check an extension file against its claimed marginal")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ext", required=True)
    p.add_argument("--marginal", required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("tilde", _cmd_tilde, "mix toward the reduced state and screen with the partial transpose")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = add("gen", _cmd_gen, "sample a random extendible state with a witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dA", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=[PROFILE_ALL, PROFILE_EXCLUDE_BOSONIC], default=PROFILE_ALL)
    p.add_argument("--out", required=True)
    p.add_argument("--witness", default=None)

    return parser


def run_command(argv) -> tuple[int, str]:
    """Run the command argv names; returns its exit code and its report.

    When argv[0] names a command, the rest of argv goes straight to that
    command's own parser, which gives the same arguments and the same errors
    as the top-level parser that would pass it on. The top-level parser runs
    for help, an unknown command and an empty argv.
    """
    argv = list(argv)
    lines = ["command: " + " ".join(str(a) for a in argv)]
    timings: list[tuple[str, float]] = []
    start = time.perf_counter()
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        code = args.func(args, lines, timings)
    except _Help as text:
        lines.append(str(text).rstrip("\n"))
        code = 0
    except (_UsageError, mio.MatrixFileError, OSError, ValueError) as exc:
        # a failure after a verdict, such as a file that cannot be written,
        # makes ERROR the report's only status
        lines = [line for line in lines if not line.startswith("status: ")]
        lines.append(f"error: {exc}")
        lines.append("status: ERROR")
        code = 1
    timings.append(("total", time.perf_counter() - start))
    lines.append(_MARKER)
    for name, dt in timings:
        lines.append(f"{name}: {dt:.3f}s")
    return code, "\n".join(lines)


def main(argv=None) -> None:
    code, report = run_command(sys.argv[1:] if argv is None else argv)
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # the reader is gone, as after `| head`: the rest of the report goes
        # to devnull, the flush at exit too, and the report's code stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()

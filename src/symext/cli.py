"""Command-line front end.

Every subcommand prints a report whose content above the "--- timings ---"
marker is a deterministic function of the arguments and input files; wall
times go below the marker. Exit codes: 0 FEASIBLE/PASS, 2 INFEASIBLE/FAIL,
3 UNDECIDED, 1 usage or file errors.

check-sym and check-bos share one handler: for a qubit B side a k-symmetric
extension exists if and only if a k-bosonic one does, and both are decided
by the top-sector problem, so they print the same report and write the same
certificate.
"""

from __future__ import annotations

import argparse
import functools
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
from .convert import BosonicState, sym_to_bos, tilde_state, verify_extension
from .linalg import DensityMatrix
from .schur import build_schur_basis
from .solver import (
    FEASIBLE,
    INFEASIBLE,
    SolverReport,
    solve_bosonic_k2_generic,
    solve_symmetric,
)

_MARKER = "--- timings ---"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 1 for bad usage, and no direct sys.exit from library calls
    def error(self, message):
        raise _UsageError(message)


def _num(x: float) -> str:
    return format(float(x), ".6e")


def _status_code(status: str) -> int:
    return {FEASIBLE: 0, "PASS": 0, INFEASIBLE: 2, "FAIL": 2}.get(status, 3)


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


def _cmd_check_qubit(args, lines, timings):
    rho = _load_bipartite(args.infile, expect_db=2)
    t0 = time.perf_counter()
    report = solve_symmetric(rho, args.k)
    timings.append(("solve", time.perf_counter() - t0))
    lines += _solver_lines(report, rho)
    if report.certificate is not None and args.cert:
        mio.save_blocks(report.certificate, args.cert, metadata={"k": args.k})
        lines.append(f"certificate: {args.cert}")
    return _status_code(report.status)


def _cmd_check_bos2(args, lines, timings):
    rho = _load_bipartite(args.infile, expect_db=args.dB)
    t0 = time.perf_counter()
    report = solve_bosonic_k2_generic(rho, args.dB)
    timings.append(("solve", time.perf_counter() - t0))
    lines += _solver_lines(report, rho)
    if report.certificate is not None and args.cert:
        mio.save_state(report.certificate, args.cert, metadata={"dB": args.dB, "sym2": True})
        lines.append(f"certificate: {args.cert}")
    return _status_code(report.status)


def _as_block_state(path, k: int) -> tuple[BlockState, list[str]]:
    """Load a convertible object: block certificate, bipartite state, or
    full-space extension. Bipartite states are solved for a witness first."""
    notes = []
    state = mio.load_block_or_state(path)
    if isinstance(state, BlockState):
        if state.k != k:
            raise _UsageError(f"{path}: certificate is for k={state.k}, not k={k}")
        notes.append("input: block certificate")
        return state, notes
    if len(state.dims) == 2 and state.dims[1] == 2 and k != 1:
        notes.append("input: bipartite state, solving for a witness")
        report = solve_symmetric(state, k)
        notes += _solver_lines(report, state)
        if report.certificate is None:
            raise _SolveFailed(report.status, notes)
        return report.certificate, notes
    if len(state.dims) == k + 1 and all(d == 2 for d in state.dims[1:]):
        notes.append("input: full-space extension")
        return global_to_blocks(state, build_schur_basis(k)), notes
    raise _UsageError(f"{path}: layout {list(state.dims)} is not convertible for k={k}")


class _SolveFailed(Exception):
    def __init__(self, status, notes):
        super().__init__(status)
        self.status = status
        self.notes = notes


def _cmd_convert(args, lines, timings):
    t0 = time.perf_counter()
    try:
        bs, notes = _as_block_state(args.infile, args.k)
    except _SolveFailed as exc:
        lines += exc.notes
        return _status_code(exc.status)
    lines += notes
    sigma = sym_to_bos(bs)
    timings.append(("convert", time.perf_counter() - t0))
    mio.save_bosonic(sigma, args.out, metadata={"k": args.k})
    lines.append(f"output: {args.out}")
    lines.append("status: PASS")
    return 0


def _cmd_verify(args, lines, timings):
    ext = mio.load_extension(args.ext)
    rho = _load_bipartite(args.marginal)
    bosonic_input = isinstance(ext, BosonicState)
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
    all calls of run_command.
    """
    parser = _Parser(prog="symext", description="symmetric and bosonic extendibility of bipartite states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        return p

    for name, helptext in (
        ("check-sym", "decide k-symmetric extendibility (qubit B)"),
        ("check-bos", "decide k-bosonic extendibility (qubit B); the same problem as check-sym"),
    ):
        p = add(name, _cmd_check_qubit, helptext)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--cert", default=None, help="write a block certificate here when feasible")

    p = add("check-bos2", _cmd_check_bos2, "decide 2-bosonic extendibility for any B dimension")
    p.add_argument("--dB", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", default=None)

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
    lines = ["command: " + " ".join(str(a) for a in argv)]
    timings: list[tuple[str, float]] = []
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(list(argv))
        code = args.func(args, lines, timings)
    except (_UsageError, mio.MatrixFileError, OSError, ValueError) as exc:
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
    print(report)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line front end.

Every subcommand prints a report whose content above the "--- timings ---"
marker is a deterministic function of the arguments and input files; wall
times go below the marker. Exit codes: 0 FEASIBLE/PASS, 2 INFEASIBLE/FAIL,
3 UNDECIDED, 1 usage or file errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import io as mio
from .blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    BlockState,
    gen_random_extendible,
    global_to_blocks,
    marginal_from_blocks,
)
from .convert import BosonicState, sym_to_bos, tilde_state, verify_extension
from .linalg import DensityMatrix
from .schur import build_schur_basis
from .solver import (
    FEASIBLE,
    INFEASIBLE,
    SolverConfig,
    SolverReport,
    solve_bosonic,
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


def _solver_lines(report: SolverReport) -> list[str]:
    return [
        f"status: {report.status}",
        f"residual: {_num(report.residual)}",
        f"gap_estimate: {_num(report.gap_estimate)}",
        f"iterations: {report.iterations}",
    ]


def _load_bipartite(path, expect_db: int | None = None) -> DensityMatrix:
    state = mio.load_state(path)
    if len(state.dims) != 2:
        raise _UsageError(f"{path}: expected a bipartite state, layout is {list(state.dims)}")
    if expect_db is not None and state.dims[1] != expect_db:
        raise _UsageError(f"{path}: B dimension is {state.dims[1]}, expected {expect_db}")
    return state


def _cmd_check_sym(args, lines, timings):
    rho = _load_bipartite(args.infile, expect_db=2)
    t0 = time.perf_counter()
    report = solve_symmetric(rho, args.k, SolverConfig(seed=args.seed))
    timings.append(("solve", time.perf_counter() - t0))
    lines += _solver_lines(report)
    if report.certificate is not None and args.cert:
        mio.save_blocks(report.certificate, args.cert, metadata={"k": args.k, "seed": args.seed})
        lines.append(f"certificate: {args.cert}")
    return _status_code(report.status)


def _cmd_check_bos(args, lines, timings):
    rho = _load_bipartite(args.infile, expect_db=2)
    t0 = time.perf_counter()
    report = solve_bosonic(rho, args.k, SolverConfig(seed=args.seed))
    timings.append(("solve", time.perf_counter() - t0))
    lines += _solver_lines(report)
    if report.certificate is not None and args.cert:
        mio.save_blocks(report.certificate, args.cert, metadata={"k": args.k, "seed": args.seed})
        lines.append(f"certificate: {args.cert}")
    return _status_code(report.status)


def _cmd_check_bos2(args, lines, timings):
    rho = _load_bipartite(args.infile, expect_db=args.dB)
    t0 = time.perf_counter()
    report = solve_bosonic_k2_generic(rho, args.dB, SolverConfig(seed=args.seed))
    timings.append(("solve", time.perf_counter() - t0))
    lines += _solver_lines(report)
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
        report = solve_symmetric(state, k, SolverConfig())
        notes += _solver_lines(report)
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
    lines.append(f"layout: {'bosonic' if bosonic_input else 'full-space'}")
    t0 = time.perf_counter()
    report = verify_extension(ext, rho, args.k, tol=args.tol)
    timings.append(("verify", time.perf_counter() - t0))

    def flag(ok):
        return "pass" if ok else "FAIL"

    lines.append(f"psd: {flag(report.psd_ok)} (min eigenvalue {_num(report.min_eigenvalue)})")
    lines.append(f"trace: {flag(report.trace_ok)} (deviation {_num(report.trace_deviation)})")
    lines.append(f"marginal: {flag(report.marginal_ok)} (deviation {_num(report.marginal_deviation)})")
    lines.append(f"invariance: {flag(report.invariance_ok)} (deviation {_num(report.invariance_deviation)})")
    if bosonic_input:
        lines.append(f"support: {flag(report.support_ok)} (overlap {_num(report.nonsymmetric_overlap)})")
        ok = report.bosonic_ok
    else:
        lines.append("support: skipped (full-space layout)")
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


def _cmd_selftest(args, lines, timings):
    from . import selftest

    t0 = time.perf_counter()
    results = selftest.run_all(only=args.only)
    timings.append(("selftest", time.perf_counter() - t0))
    all_ok = True
    for res in results:
        all_ok &= res.ok
        lines.append(f"criterion {res.number}: {'pass' if res.ok else 'FAIL'} - {res.name} ({res.detail})")
    lines.append(f"status: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="symext", description="symmetric and bosonic extendibility of bipartite states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        return p

    p = add("check-sym", _cmd_check_sym, "decide k-symmetric extendibility (qubit B)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", default=None, help="write a block certificate here when feasible")
    p.add_argument("--seed", type=int, default=0)

    p = add("check-bos", _cmd_check_bos, "decide k-bosonic extendibility (qubit B)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("check-bos2", _cmd_check_bos2, "decide 2-bosonic extendibility for any B dimension")
    p.add_argument("--dB", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", default=None)
    p.add_argument("--seed", type=int, default=0)

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

    p = add("selftest", _cmd_selftest, "run the acceptance suite")
    p.add_argument("--only", type=int, action="append", default=None, help="run a single criterion (repeatable)")

    return parser


def run_command(argv) -> tuple[int, str]:
    lines = ["command: " + " ".join(str(a) for a in argv)]
    timings: list[tuple[str, float]] = []
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(list(argv))
        code = args.func(args, lines, timings)
    except _UsageError as exc:
        lines.append(f"error: {exc}")
        lines.append("status: ERROR")
        code = 1
    except (mio.MatrixFileError, OSError, ValueError) as exc:
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

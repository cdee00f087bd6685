"""The benchmark's three workloads.

An operation takes one instance through its whole pipeline.
`BUILDERS[name](seed, workdir)` returns the instances of one round, each with
the timed call and an untimed check of its outputs by `check`, which shares
no code with symext. Inputs depend only on the workload and the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import check
import symext
import symext.cli

# failure reasons
WRONG = "wrong verdict"
UNDECIDED = "UNDECIDED"
EXCEPTION = "exception"
FAILED_CHECK = "failed check"

# Problem sizes are capped so that a round lasts about 2 s and every
# operation is timed at least 15 times in a run (see README.md).
# (k, dA, instances per round); instance i uses profile "all" when i is even
PLANTED_SHAPES = (
    (2, 2, 2), (4, 2, 2), (8, 2, 2), (10, 2, 1),
    (3, 3, 2), (6, 3, 1),
    (2, 4, 2), (4, 4, 2),
)
WERNER_KS = tuple(range(2, 6))
WERNER_OFFSETS = (0.05, -0.05, 0.005, -0.005, -0.002)
# solve_symmetric returns INFEASIBLE on these extendible states of the grid: its
# step-length stall heuristic reads a feasible plateau as a gap
WERNER_KNOWN = {(k, -0.005) for k in (4, 5)} | {(k, -0.002) for k in (3, 4, 5)}
# the exact failure reasons of a known point; any other reason is unexpected
WERNER_KNOWN_REASONS = [
    (WRONG, f"solve_symmetric says {symext.INFEASIBLE}, expected {symext.FEASIBLE}"),
    (FAILED_CHECK, f"solve_symmetric says {symext.INFEASIBLE} but solve_bosonic says {symext.FEASIBLE}"),
]
# (k, dA, instances per round) of the gen -> check-sym -> convert -> verify -> tilde chain
CHAIN_SHAPES = ((2, 2, 2), (3, 2, 2), (5, 2, 2), (8, 2, 1), (3, 3, 2), (4, 3, 1))
FULL_SPACE_SHAPES = ((4, 2), (6, 2))
BOS2_PLANTED = ((2, 3), (2, 4))  # (dA, dB)


@dataclass
class Instance:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[tuple[str, str]]]
    prepare: Callable[[], None] = lambda: None
    known_reasons: list[tuple[str, str]] | None = None  # failure reasons that are a known fault


def _instance_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed % 2**64).integers(0, 2**31 - 1, size=n)]


def _status_problems(name: str, report, expected: str) -> list[tuple[str, str]]:
    if report.status == symext.UNDECIDED:
        return [(UNDECIDED, f"{name} undecided after {report.iterations} iterations")]
    if report.status != expected:
        return [(WRONG, f"{name} says {report.status}, expected {expected}")]
    return []


def _pipeline(rho, k: int):
    sym = symext.solve_symmetric(rho, k)
    bos = symext.solve_bosonic(rho, k)
    conv = symext.sym_to_bos(sym.certificate) if sym.certificate is not None else None
    return sym, bos, conv


def _pipeline_check(rho: np.ndarray, k: int, dA: int, expected: str):
    def verify(result) -> list[tuple[str, str]]:
        sym, bos, conv = result
        out = _status_problems("solve_symmetric", sym, expected)
        out += _status_problems("solve_bosonic", bos, expected)
        if sym.status != bos.status:
            out.append((FAILED_CHECK, f"solve_symmetric says {sym.status} but solve_bosonic says {bos.status}"))
        fails: list[str] = []
        if sym.status == symext.FEASIBLE:
            blocks = {(lam.lambda1, lam.lambda2): x for lam, x in sym.certificate.blocks.items()}
            fails += check.blocks_problems(k, dA, blocks, "symmetric certificate")
            fails += check.bosonic_problems(conv.matrix, dA, k, rho, "sym_to_bos output")
        if bos.status == symext.FEASIBLE:
            top = bos.certificate.blocks.get(symext.YoungDiagram(k, 0))
            if top is None or len(bos.certificate.blocks) != 1:
                fails.append("bosonic certificate does not hold exactly the top sector")
            else:
                fails += check.bosonic_problems(top, dA, k, rho, "bosonic certificate")
        return out + [(FAILED_CHECK, p) for p in fails]

    return verify


def planted(seed: int, workdir) -> list[Instance]:
    out = []
    seeds = iter(_instance_seeds(seed, sum(n for _, _, n in PLANTED_SHAPES)))
    for k, dA, n in PLANTED_SHAPES:
        for i in range(n):
            s = next(seeds)
            profile = symext.PROFILE_ALL if i % 2 == 0 else symext.PROFILE_EXCLUDE_BOSONIC
            rho, _ = symext.gen_random_extendible(k, dA, s, profile)
            out.append(
                Instance(
                    f"k{k}-dA{dA}-{profile}-s{s}",
                    lambda rho=rho, k=k: _pipeline(rho, k),
                    _pipeline_check(rho.matrix, k, dA, symext.FEASIBLE),
                )
            )
    return out


def werner(seed: int, workdir) -> list[Instance]:
    """The fixed Werner grid; the seed is not used, so every run checks the same points."""
    out = []
    for k in WERNER_KS:
        pc = check.werner_threshold(k)
        for off in WERNER_OFFSETS:
            m = check.werner_matrix(pc + off)
            rho = symext.DensityMatrix(m, (2, 2))
            out.append(
                Instance(
                    f"k{k}-pc{off:+g}",
                    lambda rho=rho, k=k: _pipeline(rho, k),
                    _pipeline_check(m, k, 2, check.werner_verdict(k, pc + off)),
                    known_reasons=WERNER_KNOWN_REASONS if (k, off) in WERNER_KNOWN else None,
                )
            )
    return out


def _cli_problems(calls, expected_codes) -> list[tuple[str, str]]:
    out = []
    for (argv, code, report), want in zip(calls, expected_codes):
        if code == want:
            continue
        cmd = argv[0]
        if code == 3:
            out.append((UNDECIDED, f"{cmd} exited 3 (undecided)"))
        elif code == 1:
            last = [ln for ln in report.splitlines() if ln.startswith("error:")]
            out.append((EXCEPTION, f"{cmd} exited 1: {last[0] if last else 'error'}"))
        elif cmd.startswith("check-"):
            out.append((WRONG, f"{cmd} exited {code}, expected {want}"))
        else:
            out.append((FAILED_CHECK, f"{cmd} exited {code}, expected {want}"))
    return out


def _run_cli(commands):
    calls = []
    for argv in commands:
        code, report = symext.cli.run_command(argv)
        calls.append((argv, code, report))
    return calls


def _removing(*paths) -> Callable[[], None]:
    def prepare():
        for p in paths:
            if os.path.exists(p):
                os.remove(p)

    return prepare


def _file_problems(fn) -> list[tuple[str, str]]:
    try:
        return [(FAILED_CHECK, p) for p in fn()]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [(FAILED_CHECK, f"unreadable output: {exc}")]


def _chain(k: int, dA: int, profile: str, s: int, workdir: str) -> Instance:
    name = f"chain-k{k}-dA{dA}-{profile}-s{s}"
    rho, cert, sigma, tilde = (os.path.join(workdir, f"{name}.{ext}") for ext in ("rho", "cert", "sigma", "tilde"))
    k_, s_ = str(k), str(s)
    commands = [
        ["gen", "--k", k_, "--dA", str(dA), "--seed", s_, "--profile", profile, "--out", rho],
        ["check-sym", "--k", k_, "--in", rho, "--cert", cert],
        ["convert", "--k", k_, "--in", cert, "--out", sigma],
        ["verify", "--k", k_, "--ext", sigma, "--marginal", rho],
        ["tilde", "--k", k_, "--in", rho, "--out", tilde],
    ]

    def files_ok():
        out = []
        r = check.read_matrix(rho)
        out += check.density_problems(r, "gen output")
        kk, da, blocks = check.read_blocks(cert)
        if (kk, da) != (k, dA):
            out.append(f"certificate is for k={kk}, dA={da}")
        out += check.blocks_problems(k, dA, blocks, "check-sym certificate")
        sig = check.read_matrix(sigma)
        out += check.bosonic_problems(sig, dA, k, r, "convert output")
        t = check.read_matrix(tilde)
        out += check.tilde_problems(t, r, dA, k, "tilde output")
        return out

    def verify(calls):
        return _cli_problems(calls, [0] * 5) or _file_problems(files_ok)

    return Instance(name, lambda: _run_cli(commands), verify, _removing(rho, cert, sigma, tilde))


def _full_space(k: int, dA: int, s: int, workdir: str) -> Instance:
    """convert and verify on a full-space extension glued from a planted witness."""
    name = f"fullspace-k{k}-dA{dA}-s{s}"
    ext, rho, sigma = (os.path.join(workdir, f"{name}.{x}") for x in ("ext", "rho", "sigma"))
    marginal, witness = symext.gen_random_extendible(k, dA, s)
    full = symext.blocks_to_global(witness, symext.build_schur_basis(k))
    symext.save_state(full, ext)
    symext.save_state(marginal, rho)
    commands = [
        ["convert", "--k", str(k), "--in", ext, "--out", sigma],
        ["verify", "--k", str(k), "--ext", ext, "--marginal", rho],
    ]

    def verify(calls):
        def files_ok():
            r = check.read_matrix(rho)
            sig = check.read_matrix(sigma)
            return check.bosonic_problems(sig, dA, k, r, "convert output")

        return _cli_problems(calls, [0, 0]) or _file_problems(files_ok)

    return Instance(name, lambda: _run_cli(commands), verify, _removing(sigma))


def _bos2(name: str, state: np.ndarray, dA: int, dB: int, feasible: bool, workdir: str) -> Instance:
    rho, cert = (os.path.join(workdir, f"{name}.{x}") for x in ("rho", "cert"))
    symext.save_state(symext.DensityMatrix(state, (dA, dB)), rho)
    commands = [["check-bos2", "--dB", str(dB), "--in", rho, "--cert", cert]]

    def verify(calls):
        if not feasible:
            out = _cli_problems(calls, [2])
            if os.path.exists(cert):
                out.append((FAILED_CHECK, "check-bos2 wrote a certificate for an infeasible state"))
            return out

        def files_ok():
            c = check.read_matrix(cert)
            return check.two_copy_problems(c, dA, dB, state, "check-bos2 certificate")

        return _cli_problems(calls, [0]) or _file_problems(files_ok)

    return Instance(name, lambda: _run_cli(commands), verify, _removing(cert))


def _planted_two_copy(dA: int, dB: int, s: int) -> np.ndarray:
    """Pair marginal of a random state on A tensor Sym^2(C^dB)."""
    n = dA * dB * (dB + 1) // 2
    g = np.random.default_rng(s).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
    m = g @ g.conj().T
    return check.two_copy_marginal(m / m.trace().real, dA, dB)


def roundtrip(seed: int, workdir) -> list[Instance]:
    n_seeds = sum(n for _, _, n in CHAIN_SHAPES) + len(FULL_SPACE_SHAPES) + len(BOS2_PLANTED)
    seeds = iter(_instance_seeds(seed, n_seeds))
    out = []
    for k, dA, n in CHAIN_SHAPES:
        for i in range(n):
            profile = symext.PROFILE_ALL if i % 2 == 0 else symext.PROFILE_EXCLUDE_BOSONIC
            out.append(_chain(k, dA, profile, next(seeds), workdir))
    for k, dA in FULL_SPACE_SHAPES:
        out.append(_full_space(k, dA, next(seeds), workdir))
    cx, _, _ = symext.qutrit_counterexample()
    out.append(_bos2("bos2-dB3-counterexample", cx.matrix, 3, 3, False, workdir))
    for dA, dB in BOS2_PLANTED:
        s = next(seeds)
        out.append(_bos2(f"bos2-dA{dA}-dB{dB}-s{s}", _planted_two_copy(dA, dB, s), dA, dB, True, workdir))
    return out


BUILDERS = {"planted": planted, "werner": werner, "roundtrip": roundtrip}

"""Built-in acceptance suite.

Ten numbered criteria, each an independent end-to-end check with explicit
tolerances. `run_all` powers both the `selftest` subcommand and the
acceptance test module; every detail string is deterministic.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass

import numpy as np

from .blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    gen_random_extendible,
    global_to_blocks,
    marginal_from_blocks,
)
from .convert import sym_to_bos, tilde_state, verify_extension
from .linalg import (
    DensityMatrix,
    adjacent_transposition,
    partial_trace,
    permutation_operator,
    random_density,
    tensor_product,
)
from .schur import alpha_coeff, build_schur_basis, dicke, jplus_apply
from .solver import (
    FEASIBLE,
    INFEASIBLE,
    qutrit_counterexample,
    solve_bosonic_k2_generic,
    solve_symmetric,
)
from .young import YoungDiagram, hook_dim, list_diagrams, multiplicity


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str


def _num(x: float) -> str:
    return format(float(x), ".3e")


def criterion_1() -> CriterionResult:
    """Sector dimensions tile the full space and match tableau counts."""
    ok = True
    for k in range(1, 11):
        total = sum(hook_dim(lam) * lam.num_weights for lam in list_diagrams(k))
        ok &= total == 2**k
        ok &= all(multiplicity(k, lam) == hook_dim(lam) for lam in list_diagrams(k))
    return CriterionResult(1, "dimension bookkeeping", ok, "k=1..10 exact")


def criterion_2() -> CriterionResult:
    gram_dev = 0.0
    perm_dev = 0.0
    hw_dev = 0.0
    for k in range(1, 11):
        basis = build_schur_basis(k)
        b = basis.matrix
        gram_dev = max(gram_dev, float(np.abs(b.conj().T @ b - np.eye(2**k)).max()))
        for t in range(k - 1):
            op = permutation_operator(k, adjacent_transposition(k, t))
            for lam in list_diagrams(k):
                sec = basis.sector(lam)
                npath, nw = sec.shape[1], sec.shape[2]
                flat = sec.reshape(2**k, npath * nw)
                rep = (flat.conj().T @ op @ flat).reshape(npath, nw, npath, nw)
                for wi in range(1, nw):
                    perm_dev = max(perm_dev, float(np.abs(rep[:, wi, :, wi] - rep[:, 0, :, 0]).max()))
        for lam in list_diagrams(k):
            sec = basis.sector(lam)
            for mu in range(sec.shape[1]):
                hw_dev = max(hw_dev, float(np.linalg.norm(jplus_apply(sec[:, mu, -1], k))))
    ok = gram_dev <= 1e-10 and perm_dev <= 1e-10 and hw_dev <= 1e-12
    detail = f"gram {_num(gram_dev)}, weight-independence {_num(perm_dev)}, highest-weight {_num(hw_dev)}"
    return CriterionResult(2, "basis validity", ok, detail)


def criterion_3() -> CriterionResult:
    ratio_dev = 0.0
    alpha_dev = 0.0
    for k in range(1, 9):
        basis = build_schur_basis(k)
        dims = [2] * k
        for lam in list_diagrams(k):
            d = hook_dim(lam)
            sec = basis.sector(lam)
            ws = lam.weights()
            for wi, omega in enumerate(ws):
                v = sec[:, :, wi]
                m = partial_trace(v @ v.conj().T / d, dims, [0])
                # cross-multiplied ratio avoids the omega = -k/2 pole
                ratio_dev = max(ratio_dev, abs(m[0, 0].real * (k + 2 * omega) - m[1, 1].real * (k - 2 * omega)))
                if wi + 1 < len(ws):
                    w = sec[:, :, wi + 1]
                    cross = partial_trace(v @ w.conj().T / d, dims, [0])
                    alpha_dev = max(alpha_dev, abs(cross[0, 1] - alpha_coeff(lam, omega, omega + 1)))
    ok = ratio_dev <= 1e-10 and alpha_dev <= 1e-10
    return CriterionResult(3, "coefficient oracles", ok, f"ratio {_num(ratio_dev)}, alpha {_num(alpha_dev)}")


def _section3_vectors():
    e = np.eye(8)
    psi_a1 = (2 * e[1] - e[2] - e[4]) / np.sqrt(6)
    psi_a2 = (e[2] - e[4]) / np.sqrt(2)
    # second vector set, sign-corrected so both lie outside the Dicke span
    psi_b1 = (2 * e[6] - e[5] - e[3]) / np.sqrt(6)
    psi_b2 = (e[5] - e[3]) / np.sqrt(2)
    return psi_a1, psi_a2, psi_b1, psi_b2


def criterion_4() -> CriterionResult:
    basis = build_schur_basis(3)
    lam = YoungDiagram(2, 1)
    sec = basis.sector(lam)
    psi_a1, psi_a2, psi_b1, psi_b2 = _section3_vectors()

    span_dev = 0.0
    for wi, pair in ((0, (psi_a1, psi_a2)), (1, (psi_b1, psi_b2))):
        mine = sec[:, :, wi]
        theirs = np.column_stack(pair)
        span_dev = max(span_dev, float(np.abs(mine @ mine.conj().T - theirs @ theirs.conj().T).max()))

    # generic mixture of the three permitted building blocks, as one PSD
    # coefficient matrix over (A, sector-label) indices
    rng = np.random.default_rng(34)
    coeff = random_density(4, rng).reshape(2, 2, 2, 2)
    vecs = ((psi_a1, psi_a2), (psi_b1, psi_b2))
    glue = np.zeros((2, 8, 2, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            for mu in range(2):
                glue[i, :, j, :] += 0.5 * np.outer(vecs[i][mu], vecs[j][mu].conj())
    rho_mat = np.einsum("xiyj,iwjv->xwyv", coeff, glue).reshape(16, 16)
    rho = DensityMatrix(rho_mat, (2, 2, 2, 2))

    sigma = sym_to_bos(global_to_blocks(rho, basis)).embed()
    phi = np.column_stack([dicke(3, -0.5), dicke(3, 0.5)])
    proj = tensor_product(np.eye(2), phi @ phi.conj().T)
    support_dev = float(np.abs(sigma.matrix - proj @ sigma.matrix @ proj).max())
    marg_dev = float(np.abs(sigma.marginal([0, 1]) - rho.marginal([0, 1])).max())

    ok = span_dev <= 1e-12 and support_dev <= 1e-10 and marg_dev <= 1e-10
    detail = f"span {_num(span_dev)}, support {_num(support_dev)}, marginal {_num(marg_dev)}"
    return CriterionResult(4, "three-copy golden instance", ok, detail)


def _planted_cases(seeds_per_combo: int, profiles) -> list[tuple[int, int, int, str]]:
    cases = []
    for k in (2, 3, 4, 5, 6):
        for dA in (2, 3):
            for profile in profiles:
                for seed in range(seeds_per_combo):
                    cases.append((k, dA, seed, profile))
    return cases


def criterion_5() -> CriterionResult:
    cases = _planted_cases(10, (PROFILE_ALL, PROFILE_EXCLUDE_BOSONIC))
    assert len(cases) == 200
    failures = 0
    worst = 0.0
    for k, dA, seed, profile in cases:
        rho, witness = gen_random_extendible(k, dA, seed, profile)
        report = verify_extension(sym_to_bos(witness), rho, k, tol=1e-8)
        if not report.bosonic_ok:
            failures += 1
        worst = max(
            worst,
            report.trace_deviation,
            report.marginal_deviation,
            report.invariance_deviation,
            report.nonsymmetric_overlap,
            max(0.0, -report.min_eigenvalue),
        )
    ok = failures == 0
    return CriterionResult(5, "conversion property suite", ok, f"200 instances, worst deviation {_num(worst)}")


def criterion_6() -> CriterionResult:
    xi = np.array([0.6, 0.8j])
    psi_minus = np.zeros(4, dtype=complex)
    psi_minus[1] = 1 / np.sqrt(2)
    psi_minus[2] = -1 / np.sqrt(2)
    psi_plus = np.zeros(4, dtype=complex)
    psi_plus[1] = psi_plus[2] = 1 / np.sqrt(2)
    rho = DensityMatrix.from_ket(np.kron(xi, psi_minus), (2, 2, 2))
    expected = DensityMatrix.from_ket(np.kron(xi, psi_plus), (2, 2, 2))
    sigma = sym_to_bos(global_to_blocks(rho, build_schur_basis(2))).embed()
    dev = float(np.abs(sigma.matrix - expected.matrix).max())
    return CriterionResult(6, "singlet-to-triplet regression", dev <= 1e-12, f"entrywise {_num(dev)}")


def criterion_7() -> CriterionResult:
    rng = np.random.default_rng(5)
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    product = DensityMatrix(tensor_product(rho_a, rho_b), (2, 2))
    ok = True
    worst_res = 0.0
    for k in range(2, 11):
        report = solve_symmetric(product, k)
        ok &= report.status == FEASIBLE and report.residual <= 1e-8
        worst_res = max(worst_res, report.residual)

    singlet = np.zeros((4, 4))
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    sing_report = solve_symmetric(DensityMatrix(singlet, (2, 2)), 2)
    ok &= sing_report.status == INFEASIBLE and sing_report.gap_estimate >= 1e-3

    marg_dev = 0.0
    for k, dA, seed in ((2, 2, 0), (3, 2, 1), (4, 3, 2), (5, 2, 3)):
        rho, _ = gen_random_extendible(k, dA, seed)
        report = solve_symmetric(rho, k)
        ok &= report.status == FEASIBLE and report.certificate is not None
        if report.certificate is not None:
            recovered = marginal_from_blocks(report.certificate).matrix
            marg_dev = max(marg_dev, float(np.abs(recovered - rho.matrix).max()))
    ok &= marg_dev <= 1e-8
    detail = (
        f"product residual {_num(worst_res)}, singlet gap {_num(sing_report.gap_estimate)}, "
        f"planted marginal {_num(marg_dev)}"
    )
    return CriterionResult(7, "solver calibration", ok, detail)


def criterion_8() -> CriterionResult:
    rho_ab, full, _ = qutrit_counterexample()
    report = solve_bosonic_k2_generic(rho_ab, 3)
    infeasible_ok = report.status == INFEASIBLE and report.gap_estimate >= 1e-4

    checks = verify_extension(full, rho_ab, 2, tol=1e-8)
    witness_ok = (
        checks.psd_ok and checks.trace_ok and checks.marginal_ok and checks.invariance_ok and not checks.support_ok
    )

    a, b, c = (v / np.sqrt(28.0) for v in (1.0, 2.0, 3.0))
    slack = a * a + b * b + c * c - 2 * (a * b + a * c + b * c)
    ok = infeasible_ok and witness_ok and slack < 0
    detail = f"gap {_num(report.gap_estimate)}, residual slack {_num(slack)}"
    return CriterionResult(8, "qutrit counterexample", ok, detail)


def criterion_9() -> CriterionResult:
    cases = _planted_cases(10, (PROFILE_ALL,))
    assert len(cases) == 100
    ppt_failures = 0
    worst = 0.0
    for k, dA, seed, profile in cases:
        rho, _ = gen_random_extendible(k, dA, seed, profile)
        report = tilde_state(rho, k)
        if not report.ppt:
            ppt_failures += 1
        worst = min(worst, report.pt_min_eigenvalue)

    singlet = np.zeros((4, 4))
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    sing = tilde_state(DensityMatrix(singlet, (2, 2)), 2)
    sing_ok = (not sing.ppt) and abs(sing.pt_min_eigenvalue + 0.125) <= 1e-10

    ok = ppt_failures == 0 and sing_ok
    detail = f"100 screens, min eigenvalue {_num(worst)}, singlet {_num(sing.pt_min_eigenvalue)}"
    return CriterionResult(9, "mixing screen", ok, detail)


def _pipeline(workdir: pathlib.Path) -> dict[str, bytes]:
    from .cli import run_command

    rho = workdir / "rho.state"
    witness = workdir / "witness.blocks"
    cert = workdir / "cert.blocks"
    sigma = workdir / "sigma.state"
    steps = [
        ["gen", "--k", "3", "--dA", "2", "--seed", "7", "--profile", PROFILE_ALL,
         "--out", str(rho), "--witness", str(witness)],
        ["check-sym", "--k", "3", "--in", str(rho), "--cert", str(cert)],
        ["convert", "--k", "3", "--in", str(rho), "--out", str(sigma)],
        ["verify", "--k", "3", "--ext", str(sigma), "--marginal", str(rho)],
    ]
    for argv in steps:
        code, report = run_command(argv)
        if code != 0:
            raise RuntimeError(f"pipeline step {argv[0]} exited {code}:\n{report}")
    return {p.name: p.read_bytes() for p in (rho, witness, cert, sigma)}


def criterion_10() -> CriterionResult:
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        runs = []
        for sub in ("first", "second"):
            d = root / sub
            d.mkdir()
            runs.append(_pipeline(d))
    same = all(runs[0][name] == runs[1][name] for name in runs[0])
    return CriterionResult(10, "determinism", same, f"{len(runs[0])} files byte-compared")


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(only=None) -> list[CriterionResult]:
    wanted = set(only) if only else None
    results = []
    for i, fn in enumerate(_CRITERIA, start=1):
        if wanted is not None and i not in wanted:
            continue
        try:
            results.append(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CriterionResult(i, fn.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    return results

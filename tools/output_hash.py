"""One SHA-256 over the output of a fixed grid of CLI calls.

Run with the package to test on the path, for example

    PYTHONPATH=src python tools/output_hash.py

and compare the printed digest with the one from another checkout. The
digest covers, for every call in order, its exit code and its report above
the "--- timings ---" marker, with the temporary directory masked; then the
name and bytes of every file the grid wrote, inputs included; last, for
each INFEASIBLE qubit state of the grid, the witness (W, c) that
`solve_symmetric` returns, as the bytes of W and the repr of c, which the
report shows only through tr(W rho) + c to 7 digits. Two checkouts print
the same digest exactly when they agree on all of it and run with the same
BLAS thread count, so a second line prints the thread variables
(`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`, `MKL_NUM_THREADS`), each as its
value or `unset`.

The grid: for k in {2, 3, 5, 8}, both profiles and seeds 0-2
(dA = seed + 1), gen with a witness, check-sym with a certificate, convert
of the certificate, the witness and the state, verify of the bosonic output
and of the certificate, and tilde; each of these solves ends at DR
iteration 1. Then the singlet's INFEASIBLE check-sym and convert; check-sym
at k=3 on the two states of `_drawn_states`, a pure product that is
FEASIBLE after DR steps (its certificate an eigenvalue clip, which is then
converted and verified) and a rank-2 mixture that is INFEASIBLE after DR
steps; check-sym at k=3 on the Werner state at p = 5/9 + 0.05, above the
threshold (k + 2) / (3k) and INFEASIBLE at DR iteration 1, the path of the
werner benchmark workload; a k=4 full-space convert and verify; check-bos2
on the qutrit counterexample (INFEASIBLE) and, with a certificate, on I/9
(dA = dB = 3) and on a planted two-copy marginal (dA = 2, dB = 4), both
FEASIBLE; check-bos at k=3 on the qutrit counterexample (INFEASIBLE);
verify at k=2 of the planted marginal's certificate, checked on its block
of A tensor Sym^2(C^4); check-bos at k=7 with a certificate on a planted
marginal with dA = 2, dB = 3 (FEASIBLE), and verify at k=7 of that
certificate, whose lift into the full space would have 4,374 rows; and
convert of a missing file and of a full-space file for the wrong k. The witnesses hashed next are those of the singlet, the mixture
and the Werner state.

Last come the solves of the werner benchmark workload, its states built here
in closed form: for k = 2..5 and each offset of `WERNER_OFFSETS`, the
Werner state at p = (k + 2) / (3k) + offset solved at k, hashed as its
status, the repr of its residual and of its gap estimate, then the bytes of
each certificate block or the bytes of W and the repr of c.
"""

import hashlib
import os
import pathlib
import tempfile
from math import comb

import numpy as np

from symext import (
    DensityMatrix,
    blocks_to_global,
    build_schur_basis,
    gen_random_extendible,
    qutrit_counterexample,
    save_state,
    solve_symmetric,
)
from symext.cli import run_command
from symext.schur import sym_isometry

MARKER = "--- timings ---"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WERNER_KS = range(2, 6)
WERNER_OFFSETS = (0.05, -0.05, 0.005, -0.005, -0.002)


def _planted_pair_marginal(dA: int, dB: int, seed: int) -> DensityMatrix:
    """The (A, B1) marginal of a random full-rank state on A tensor Sym^2(C^dB)."""
    n = dA * dB * (dB + 1) // 2
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
    x = g @ g.conj().T
    lift = np.kron(np.eye(dA), sym_isometry(2, dB))
    full = DensityMatrix(lift @ (x / x.trace().real) @ lift.T, (dA, dB, dB))
    return DensityMatrix(full.marginal((0, 1)), (dA, dB))


def _planted_marginal(dA: int, dB: int, k: int, seed: int) -> DensityMatrix:
    """The (A, B1) marginal of a random full-rank state on A tensor Sym^k(C^dB).

    Its partial trace over B2..Bk is taken on the lift's rows split into
    (A, B1) and the rest, so the dA dB^k square is never formed. The k = 2
    grid files come from `_planted_pair_marginal` instead, which forms that
    square; the two agree to rounding, not bit for bit.
    """
    n = dA * comb(dB + k - 1, k)
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
    x = g @ g.conj().T
    lift = np.kron(np.eye(dA), sym_isometry(k, dB)).reshape(dA * dB, dB ** (k - 1), n)
    return DensityMatrix(np.einsum("xrp,pq,yrq->xy", lift, x / x.trace().real, lift), (dA, dB))


def _drawn_states() -> tuple[DensityMatrix, DensityMatrix]:
    """A pure product |a><a| x |b><b| and a rank-2 mixture p m + (1 - p) I/4,
    from one default_rng(0) stream: a, b and the 4 x 2 factor g of
    m = g g^H / tr are complex Gaussian, and p is uniform in [0.3, 1)."""
    gen = np.random.default_rng(0)
    a, b = (gen.standard_normal(2) + 1j * gen.standard_normal(2) for _ in range(2))
    product = DensityMatrix.from_ket(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)), (2, 2))
    g = gen.standard_normal((4, 2)) + 1j * gen.standard_normal((4, 2))
    m = g @ g.conj().T
    p = gen.uniform(0.3, 1)
    return product, DensityMatrix(p * m / m.trace().real + (1 - p) * np.eye(4) / 4, (2, 2))


def _werner(p: float) -> DensityMatrix:
    """p |psi-><psi-| + (1 - p) I/4 on two qubits."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4, (2, 2))


def grid_digest() -> str:
    """The hex SHA-256 of the grid's reports and files."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)

        def run(*argv) -> None:
            code, report = run_command([str(a) for a in argv])
            head = report.partition(MARKER)[0].replace(tmp, "<tmp>")
            digest.update(f"{code}\n{head}".encode())

        for k in (2, 3, 5, 8):
            for profile in ("all", "exclude-bosonic"):
                for seed in range(3):
                    p = root / f"k{k}-{profile}-s{seed}"
                    state, witness, cert = f"{p}.state", f"{p}.witness", f"{p}.cert"
                    run(
                        "gen", "--k", k, "--dA", seed + 1, "--seed", seed, "--profile", profile,
                        "--out", state, "--witness", witness,
                    )
                    run("check-sym", "--k", k, "--in", state, "--cert", cert)
                    for source in ("cert", "witness", "state"):
                        run("convert", "--k", k, "--in", f"{p}.{source}", "--out", f"{p}.{source}.bos")
                    run("verify", "--k", k, "--ext", f"{p}.cert.bos", "--marginal", state)
                    run("verify", "--k", k, "--ext", cert, "--marginal", state)
                    run("tilde", "--k", k, "--in", state, "--out", f"{p}.tilde")

        singlet = root / "singlet.state"
        ket = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        singlet_rho = DensityMatrix.from_ket(ket, (2, 2))
        save_state(singlet_rho, singlet)
        run("check-sym", "--k", 3, "--in", singlet, "--cert", root / "singlet.cert")
        run("convert", "--k", 3, "--in", singlet, "--out", root / "singlet.bos")

        product_rho, mixture_rho = _drawn_states()
        werner_rho = _werner(5 / 9 + 0.05)
        for name, rho in (("product", product_rho), ("mixture", mixture_rho), ("werner", werner_rho)):
            save_state(rho, root / f"{name}.state")
            run("check-sym", "--k", 3, "--in", root / f"{name}.state", "--cert", root / f"{name}.cert")
        run("convert", "--k", 3, "--in", root / "product.cert", "--out", root / "product.bos")
        run("verify", "--k", 3, "--ext", root / "product.cert", "--marginal", root / "product.state")

        full, marginal = root / "full4.state", root / "full4.marginal"
        rho, witness = gen_random_extendible(4, 2, 0)
        save_state(rho, marginal)
        save_state(blocks_to_global(witness, build_schur_basis(4)), full)
        run("convert", "--k", 4, "--in", full, "--out", root / "full4.bos")
        run("verify", "--k", 4, "--ext", full, "--marginal", marginal)

        qutrit = root / "qutrit.state"
        save_state(qutrit_counterexample()[0], qutrit)
        run("check-bos2", "--dB", 3, "--in", qutrit, "--cert", root / "qutrit.cert")
        for name, rho in (
            ("mixed", DensityMatrix(np.eye(9) / 9, (3, 3))),
            ("planted", _planted_pair_marginal(2, 4, 0)),
        ):
            pair = root / f"{name}.pair"
            save_state(rho, pair)
            run("check-bos2", "--dB", rho.dims[1], "--in", pair, "--cert", root / f"{name}.pair.cert")
        run("check-bos", "--k", 3, "--in", qutrit, "--cert", root / "qutrit3.cert")
        run("verify", "--k", 2, "--ext", root / "planted.pair.cert", "--marginal", root / "planted.pair")
        save_state(_planted_marginal(2, 3, 7, 0), root / "planted7.state")
        run("check-bos", "--k", 7, "--in", root / "planted7.state", "--cert", root / "planted7.cert")
        run("verify", "--k", 7, "--ext", root / "planted7.cert", "--marginal", root / "planted7.state")

        run("convert", "--k", 2, "--in", root / "missing.state", "--out", root / "missing.bos")
        run("convert", "--k", 3, "--in", full, "--out", root / "wrong-k.bos")

        for path in sorted(root.iterdir()):
            digest.update(f"{path.name}\n".encode())
            digest.update(path.read_bytes())

    for name, rho in (("singlet", singlet_rho), ("mixture", mixture_rho), ("werner", werner_rho)):
        report = solve_symmetric(rho, 3)
        digest.update(f"{name}\n{report.status}\n".encode())
        if report.witness is not None:
            digest.update(report.witness.w.tobytes())
            digest.update(f"{report.witness.c!r}\n".encode())
    for k in WERNER_KS:
        for off in WERNER_OFFSETS:
            report = solve_symmetric(_werner((k + 2) / (3 * k) + off), k)
            digest.update(f"werner k={k} {off:+g}\n{report.status}\n".encode())
            digest.update(f"{report.residual!r}\n{report.gap_estimate!r}\n".encode())
            if report.certificate is not None:
                for block in report.certificate.blocks.values():
                    digest.update(block.tobytes())
            elif report.witness is not None:
                digest.update(report.witness.w.tobytes())
                digest.update(f"{report.witness.c!r}\n".encode())
    return digest.hexdigest()


def main() -> None:
    print(grid_digest())
    print(" ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES))


if __name__ == "__main__":
    main()

"""One SHA-256 over the output of a fixed grid of CLI calls.

Run with the package to test on the path, for example

    PYTHONPATH=src python tools/output_hash.py

and compare the printed digest with the one from another checkout. The
digest covers, for every call in order, its exit code and its report above
the "--- timings ---" marker, with the temporary directory masked; then the
name and bytes of every file the grid wrote, inputs included. Two checkouts
print the same digest exactly when they agree on all of it and run with the
same BLAS thread count, so a second line prints the thread variables
(`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`, `MKL_NUM_THREADS`), each as its
value or `unset`.

The grid: for k in {2, 3, 5, 8}, both profiles and seeds 0-2 (dA = seed + 1),
gen with a witness, check-sym with a certificate, convert of the
certificate, the witness and the state, verify of the bosonic output and of
the certificate, and tilde. Then the singlet's INFEASIBLE check-sym and
convert, a k=4 full-space convert and verify, check-bos2 on the qutrit
counterexample (INFEASIBLE) and, with a certificate, on I/9 (dA = dB = 3)
and on a planted two-copy marginal (dA = 2, dB = 4), both FEASIBLE, and
convert of a missing file and of a full-space file for the wrong k.
"""

import hashlib
import os
import pathlib
import tempfile

import numpy as np

from symext import (
    DensityMatrix,
    blocks_to_global,
    build_schur_basis,
    gen_random_extendible,
    qutrit_counterexample,
    save_state,
)
from symext.cli import run_command
from symext.schur import sym_isometry

MARKER = "--- timings ---"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _planted_pair_marginal(dA: int, dB: int, seed: int) -> DensityMatrix:
    """The (A, B1) marginal of a random full-rank state on A tensor Sym^2(C^dB)."""
    n = dA * dB * (dB + 1) // 2
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
    x = g @ g.conj().T
    lift = np.kron(np.eye(dA), sym_isometry(2, dB))
    full = DensityMatrix(lift @ (x / x.trace().real) @ lift.T, (dA, dB, dB))
    return DensityMatrix(full.marginal((0, 1)), (dA, dB))


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
        save_state(DensityMatrix.from_ket(ket, (2, 2)), singlet)
        run("check-sym", "--k", 3, "--in", singlet, "--cert", root / "singlet.cert")
        run("convert", "--k", 3, "--in", singlet, "--out", root / "singlet.bos")

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

        run("convert", "--k", 2, "--in", root / "missing.state", "--out", root / "missing.bos")
        run("convert", "--k", 3, "--in", full, "--out", root / "wrong-k.bos")

        for path in sorted(root.iterdir()):
            digest.update(f"{path.name}\n".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    print(grid_digest())
    print(" ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES))


if __name__ == "__main__":
    main()

"""Output checker that shares no code with symext.

Every quantity the benchmark accepts is recomputed here from numpy and the
standard library alone: files are read with `json` and their entries turned
into matrices by this module, the pair marginal of a bosonic extension comes
from the closed-form reduction of Dicke states, the two-copy marginal from an
explicit embedding, and Werner verdicts from the known threshold. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from math import comb, sqrt

import numpy as np

TOL = 1e-7
_SYM_PREFIX = "sym("


def _matrix(entries, dim: int, where: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (dim * dim, 2):
        raise ValueError(f"{where}: expected {dim * dim} [re, im] pairs, found shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim)


def _slots(entry) -> int:
    if isinstance(entry, int):
        return entry
    if isinstance(entry, str) and entry.startswith(_SYM_PREFIX) and entry.endswith(")"):
        return int(entry[len(_SYM_PREFIX) : -1]) + 1
    raise ValueError(f"bad layout entry {entry!r}")


def read_matrix(path) -> np.ndarray:
    """The matrix of a state or extension file, sized by its layout."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    layout = doc["layout"]
    dim = 1
    for entry in layout:
        dim *= _slots(entry)
    return _matrix(doc["entries"], dim, str(path))


def read_blocks(path) -> tuple[int, int, dict]:
    """(k, dA, {(lambda1, lambda2): block}) of a block certificate file."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "blocks":
        raise ValueError(f"{path}: kind is {doc.get('kind')!r}, not 'blocks'")
    k, dA = int(doc["k"]), int(doc["dA"])
    blocks = {}
    for part in doc["blocks"]:
        l1, l2 = (int(v) for v in part["diagram"])
        blocks[(l1, l2)] = _matrix(part["entries"], dA * (l1 - l2 + 1), str(path))
    return k, dA, blocks


def density_problems(m: np.ndarray, name: str, tol: float = TOL) -> list[str]:
    """Hermitian, eigenvalues at least -tol, trace 1."""
    out = []
    herm = float(np.linalg.norm(m - m.conj().T))
    if herm > tol:
        out.append(f"{name}: not Hermitian (deviation {herm:.3e})")
    low = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if low < -tol:
        out.append(f"{name}: eigenvalue {low:.3e} below -{tol:g}")
    tr = m.trace()
    if abs(tr - 1.0) > tol:
        out.append(f"{name}: trace {tr.real:.12g}{tr.imag:+.3g}i is not 1")
    return out


def dicke_pair_marginal(m: np.ndarray, dA: int, k: int) -> np.ndarray:
    """(A, B1) marginal of a state on A tensor span{|D_0>, ..., |D_k>}.

    |D_n> is the uniform superposition of k-qubit strings with n ones.
    tr_{B2..Bk} |D_n><D_m| is (k-n)/k |0><0| + n/k |1><1| for m = n,
    sqrt((k-n)(n+1))/k |0><1| for m = n+1, and zero for |m - n| > 1.
    """
    x = m.reshape(dA, k + 1, dA, k + 1)
    n = np.arange(k + 1)
    adj = np.sqrt((k - n[:-1]) * (n[:-1] + 1)) / k
    diag = np.einsum("anbn->nab", x)
    up = np.einsum("anbn->nab", x[:, :-1, :, 1:])
    out = np.zeros((dA, 2, dA, 2), dtype=complex)
    out[:, 0, :, 0] = np.einsum("n,nab->ab", (k - n) / k, diag)
    out[:, 1, :, 1] = np.einsum("n,nab->ab", n / k, diag)
    out[:, 0, :, 1] = np.einsum("n,nab->ab", adj, up)
    out[:, 1, :, 0] = out[:, 0, :, 1].conj().T
    return out.reshape(2 * dA, 2 * dA)


def bosonic_problems(m: np.ndarray, dA: int, k: int, rho: np.ndarray, name: str, tol: float = TOL) -> list[str]:
    """A bosonic extension in Dicke coordinates whose pair marginal is rho."""
    if m.shape != (dA * (k + 1), dA * (k + 1)):
        return [f"{name}: shape {m.shape} does not fit dA={dA}, k={k}"]
    out = density_problems(m, name, tol)
    dev = float(np.linalg.norm(dicke_pair_marginal(m, dA, k) - rho))
    if dev > tol:
        out.append(f"{name}: pair marginal deviates from the state by {dev:.3e}")
    return out


def hook_dim(k: int, lambda2: int) -> int:
    """Standard tableaux of the two-row diagram [k - lambda2, lambda2]."""
    return comb(k, lambda2) - (comb(k, lambda2 - 1) if lambda2 else 0)


def blocks_problems(k: int, dA: int, blocks: dict, name: str, tol: float = TOL) -> list[str]:
    """Hermitian PSD sector blocks of k qubits whose tableau-weighted trace is 1."""
    out = []
    total = 0.0
    for (l1, l2), x in blocks.items():
        if l1 + l2 != k or l1 < l2 or l2 < 0:
            out.append(f"{name}: [{l1},{l2}] is not a sector of {k} qubits")
            continue
        herm = float(np.linalg.norm(x - x.conj().T))
        if herm > tol:
            out.append(f"{name}: block [{l1},{l2}] not Hermitian (deviation {herm:.3e})")
        low = float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0])
        if low < -tol:
            out.append(f"{name}: block [{l1},{l2}] has eigenvalue {low:.3e}")
        total += hook_dim(k, l2) * float(x.trace().real)
    if abs(total - 1.0) > tol:
        out.append(f"{name}: weighted block trace {total:.12g} is not 1")
    return out


def sym2_isometry(dB: int) -> np.ndarray:
    """Columns |ii> and (|ij> + |ji>)/sqrt(2) for i < j, pairs in lexicographic order."""
    cols = []
    for i in range(dB):
        for j in range(i, dB):
            v = np.zeros(dB * dB)
            v[i * dB + j] = v[j * dB + i] = 1.0 if i == j else 1 / sqrt(2.0)
            cols.append(v)
    return np.stack(cols, axis=1)


def two_copy_marginal(m: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """(A, B1) marginal of a state on A tensor Sym^2(C^dB) embedded in A B1 B2."""
    lift = np.kron(np.eye(dA), sym2_isometry(dB))
    full = (lift @ m @ lift.conj().T).reshape(dA, dB, dB, dA, dB, dB)
    return np.einsum("abcxyc->abxy", full).reshape(dA * dB, dA * dB)


def two_copy_problems(m: np.ndarray, dA: int, dB: int, rho: np.ndarray, name: str, tol: float = TOL) -> list[str]:
    nsym = dB * (dB + 1) // 2
    if m.shape != (dA * nsym, dA * nsym):
        return [f"{name}: shape {m.shape} does not fit dA={dA}, dB={dB}"]
    out = density_problems(m, name, tol)
    dev = float(np.linalg.norm(two_copy_marginal(m, dA, dB) - rho))
    if dev > tol:
        out.append(f"{name}: two-copy marginal deviates from the state by {dev:.3e}")
    return out


def tilde_problems(tilde: np.ndarray, rho: np.ndarray, dA: int, k: int, name: str, tol: float = TOL) -> list[str]:
    """The qubit-B mixture (rho_A x I + k rho) / (k + 2), with a PSD partial transpose.

    For a k-extendible rho the mixture is separable, so its partial transpose
    must be PSD.
    """
    r = rho.reshape(dA, 2, dA, 2)
    rho_a = np.einsum("abcb->ac", r)
    want = (np.kron(rho_a, np.eye(2)) + k * rho) / (k + 2)
    out = []
    dev = float(np.linalg.norm(tilde - want))
    if dev > tol:
        out.append(f"{name}: mixture deviates from (rho_A x I + k rho)/(k+2) by {dev:.3e}")
    pt = tilde.reshape(dA, 2, dA, 2).transpose(0, 3, 2, 1).reshape(2 * dA, 2 * dA)
    low = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])
    if low < -tol:
        out.append(f"{name}: partial transpose has eigenvalue {low:.3e}")
    return out


def werner_matrix(p: float) -> np.ndarray:
    """p |psi-><psi-| + (1 - p) I/4 on two qubits."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)
    return p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4


def werner_threshold(k: int) -> float:
    """Largest singlet weight p with a k-extendible Werner state (Johnson-Viola)."""
    return (k + 2) / (3 * k)


def werner_verdict(k: int, p: float) -> str:
    return "FEASIBLE" if p <= werner_threshold(k) else "INFEASIBLE"

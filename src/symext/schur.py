"""Coupled spin basis of k qubits and the marginal coefficient tables.

The basis is built by coupling one spin-1/2 at a time with standard
Clebsch-Gordan coefficients (Condon-Shortley phases). Each basis vector is
labelled by a two-row sector, a coupling path, and a total J_z weight. In
this basis every permutation of the qubits is block diagonal over
(sector, weight), and for a fixed sector the block is the same matrix for
every weight, which is what makes per-sector block coordinates well defined.

Each sector also has a table of coefficients (`sector_tables`). Averaged
over its paths, the term between weights w and w' of sector lam traces down,
on one qubit, to diag(t0, t1) when w' = w, with t0 = (k - 2w) / (2k) and
t1 = (k + 2w) / (2k), to alpha |0><1| when w' = w + 1, with
alpha = sqrt((j - w)(j + w + 1)) / k for the sector's spin j, and to zero
otherwise. A block becomes bosonic through the entrywise product with
P = xi xi^T + diag(1 - xi^2), unit diagonal and PSD because every xi is at
most 1, whose adjacent entries are the ratios p of the sector's alpha to the
top sector's, so that the pair marginal does not move. The tables are cached
per diagram: all of them up to the block cap of 64 take about 6.8 MiB.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import sqrt
from types import MappingProxyType

import numpy as np

from .caps import block_k, check_dense_bytes
from .young import YoungDiagram, hook_dim, list_diagrams


def build_schur_basis(k: int) -> MappingProxyType:
    """Couple k spin-1/2 systems one at a time into the sector basis, if `caps` allows its peak bytes.

    The basis is a read-only mapping from each diagram of `list_diagrams(k)`,
    in that order, to the sector's orthonormal basis vectors: a read-only
    array of shape (2^k, paths, weights), with coupling paths in
    lexicographic order and weights ascending. It takes 8 * 4^k bytes; the
    build peaks at about twice that, the last coupling level beside the
    stacked sectors, and is charged three times. k is in 1..64 (`caps.block_k`).
    """
    k = block_k(k)
    check_dense_bytes(f"the Schur basis of k={k}", 3 * 8 * 4**k)
    return _build_schur_basis_cached(k)


@lru_cache(maxsize=8)
def _build_schur_basis_cached(k: int) -> MappingProxyType:
    # level maps each coupling path, twice the spin after each qubit, to an
    # array whose column i is the weight m = i - j
    level: dict[tuple[int, ...], np.ndarray] = {(1,): np.eye(2)}
    for _ in range(k - 1):
        grown: dict[tuple[int, ...], np.ndarray] = {}
        for path, mat in level.items():
            j2 = path[-1]
            for tau in (-1, 1):  # 2 (J - j): couple down or up to J
                jn2 = j2 + tau
                if jn2 < 0:
                    continue
                out = np.zeros((2 * mat.shape[0], jn2 + 1))
                # appending qubit t+1, of twice J_z sigma, as the least
                # significant digit, bit: the new column i, weight m, reads the
                # parent column i - shift, weight m - sigma / 2, over the i
                # where both columns exist
                for bit, sigma in ((0, -1), (1, 1)):
                    shift = (tau + sigma) // 2
                    for i in range(max(0, shift), min(jn2, j2 + shift) + 1):
                        # <j, m - s; 1/2, s | J, m> = sqrt((j + 1/2 + 4 (J - j) s m) / (2j + 1)),
                        # negated for J = j - 1/2 and s = 1/2 (Condon-Shortley phases)
                        c = sqrt((j2 + 1 + tau * sigma * (2 * i - jn2)) / (2 * j2 + 2))
                        out[bit::2, i] += (-c if tau < sigma else c) * mat[:, i - shift]
                grown[path + (jn2,)] = out
        level = grown
    # each sector stacks the paths that end at its spin j, in lexicographic order
    grouped: dict[YoungDiagram, list[np.ndarray]] = {}
    for path in sorted(level):
        j2 = path[-1]
        grouped.setdefault(YoungDiagram((k + j2) // 2, (k - j2) // 2), []).append(level[path])
    sectors = {lam: np.stack(grouped[lam], axis=1) for lam in list_diagrams(k)}
    for arr in sectors.values():
        arr.flags.writeable = False
    return MappingProxyType(sectors)


def sym_slots(k: int, d: int) -> dict[tuple[int, ...], int]:
    """The column of each multiset of k legs over d levels, a sorted tuple, in
    `itertools.combinations_with_replacement(range(d), k)` order: the column order
    of Sym^k(C^d) in the solver's constraint maps, `sym_isometry` and certificate files."""
    return {legs: s for s, legs in enumerate(combinations_with_replacement(range(d), k))}


def sym_isometry(k: int, d: int) -> np.ndarray:
    """Isometry from Sym^k(C^d), in `sym_slots(k, d)` column order, into k d-level legs: each
    of the d^k words (leg 1 the most significant digit) lands in the column of its
    multiset, with amplitude one over the square root of the number of words that share it."""
    slots = sym_slots(k, d)
    col = np.array([slots[tuple(sorted(word))] for word in product(range(d), repeat=k)])
    v = np.zeros((len(col), len(slots)))
    v[np.arange(len(col)), col] = 1.0 / np.sqrt(np.bincount(col)[col])
    return v


@lru_cache(maxsize=2048)
def sector_tables(lam: YoungDiagram) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients of one sector, (c0, c1, ca, scale), read-only and cached.

    With d = hook_dim(lam), j = lam.spin and the weights w of `lam.weights()`,
    c0 and c1 hold d t0 = d (k - 2w) / (2k) and d t1 = d (k + 2w) / (2k) per
    weight, ca holds d alpha = d sqrt((j - w)(j + w + 1)) / k per adjacent pair
    (w, w + 1), at its lesser weight, and scale is d P. The adjacent entries of
    P are p = sqrt((j - w)(j + w + 1) / ((k/2 - w)(k/2 + w + 1))); the others
    are those of xi xi^T + diag(1 - xi^2), where xi is sqrt(p) on both weights
    of the pair with the largest p and extends outward by xi_i xi_(i+1) = p_i.

    Every xi is at most 1. p^2 = (a - u) / (b - u) with u = w(w + 1),
    a = j(j + 1) <= b = (k/2)(k/2 + 1), so p <= 1 and p falls as u grows, that
    is away from the middle pair. Hence xi_i = xi_(i+2) p_i / p_(i+1) <= xi_(i+2)
    walking left from the largest p (mirrored to the right), and the two
    amplitudes that start each walk, sqrt(p) and p_i / sqrt(p), are at most
    sqrt(max p) <= 1.
    """
    k, j, nw, d = lam.k, lam.spin, lam.num_weights, hook_dim(lam)
    ws = lam.weights()
    lo = ws[:-1]
    alpha = np.sqrt((j - lo) * (j + lo + 1)) / k
    p_adj = np.sqrt((j - lo) * (j + lo + 1) / ((k / 2 - lo) * (k / 2 + lo + 1)))
    xi = np.ones(nw)
    if nw > 1:
        anchor = int(np.argmax(p_adj))
        xi[anchor] = xi[anchor + 1] = sqrt(p_adj[anchor])
        for i in range(anchor - 1, -1, -1):
            xi[i] = p_adj[i] / xi[i + 1]
        for i in range(anchor + 2, nw):
            xi[i] = p_adj[i - 1] / xi[i - 1]
    p = np.outer(xi, xi) + np.diag(1.0 - xi**2)
    adj = np.arange(nw - 1)
    p[adj, adj + 1] = p[adj + 1, adj] = p_adj
    tables = (d * ((k - 2 * ws) / (2 * k)), d * ((k + 2 * ws) / (2 * k)), d * alpha, d * p)
    for a in tables:
        a.flags.writeable = False
    return tables

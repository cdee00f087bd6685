"""Coupled spin basis of k qubits and the marginal coefficient tables.

The basis is built by coupling one spin-1/2 at a time with standard
Clebsch-Gordan coefficients (Condon-Shortley phases). Each basis vector is
labelled by a two-row sector, a coupling path, and a total J_z weight. In
this basis every permutation of the qubits is block diagonal over
(sector, weight), and for a fixed sector the block is the same matrix for
every weight, which is what makes per-sector block coordinates well defined.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from .caps import check_dense_bytes, integer_size
from .young import YoungDiagram, list_diagrams


def _cg(j: float, m: float, s: float, up: bool) -> float:
    # <j, m-s; 1/2, s | j +- 1/2, m> with Condon-Shortley phases
    if up:
        if s > 0:
            return sqrt((j + m + 0.5) / (2 * j + 1))
        return sqrt((j - m + 0.5) / (2 * j + 1))
    if s > 0:
        return -sqrt((j - m + 0.5) / (2 * j + 1))
    return sqrt((j + m + 0.5) / (2 * j + 1))


class SchurBasis:
    """Orthonormal coupled basis of (C^2)^(x k), grouped into sectors.

    `sector(lam)` returns the basis vectors of one sector as a read-only
    array of shape (2^k, paths, weights), with coupling paths in
    lexicographic order and weights ascending.
    """

    def __init__(self, k: int, sectors):
        self.k = int(k)
        self.diagrams = list_diagrams(self.k)
        self._sectors = sectors
        for arr in sectors.values():
            arr.flags.writeable = False

    def sector(self, lam: YoungDiagram) -> np.ndarray:
        """Basis vectors of one sector, shape (2^k, paths, weights)."""
        return self._sectors[lam]

    def __repr__(self):
        return f"SchurBasis(k={self.k}, sectors={len(self.diagrams)})"


def build_schur_basis(k: int) -> SchurBasis:
    """Couple k spin-1/2 systems one at a time into the sector basis, if `caps` allows its peak bytes.

    The basis takes 8 * 4^k bytes; the build peaks at about twice that, the
    last coupling level beside the stacked sectors, and is charged three times.
    """
    k = integer_size("k", k)
    if k < 1:
        raise ValueError("k must be at least 1")
    check_dense_bytes(f"the Schur basis of k={k}", 3 * 8 * 4**k)
    return _build_schur_basis_cached(k)


@lru_cache(maxsize=8)
def _build_schur_basis_cached(k: int) -> SchurBasis:
    # level maps each coupling path to an array with one column per weight
    level: dict[tuple[float, ...], np.ndarray] = {(0.5,): np.eye(2)}
    for _ in range(k - 1):
        grown: dict[tuple[float, ...], np.ndarray] = {}
        for path, mat in level.items():
            j = path[-1]
            dim = mat.shape[0]
            for up in (False, True):
                jn = j + 0.5 if up else j - 0.5
                if jn < 0:
                    continue
                nw = int(round(2 * jn)) + 1
                out = np.zeros((2 * dim, nw))
                for mi in range(nw):
                    m = -jn + mi
                    for s, bit in ((-0.5, 0), (0.5, 1)):
                        m_old = m - s
                        if abs(m_old) > j + 1e-9:
                            continue
                        c = _cg(j, m, s, up)
                        if c != 0.0:
                            # appending qubit t+1 as the least significant digit
                            out[bit::2, mi] += c * mat[:, int(round(m_old + j))]
                grown[path + (jn,)] = out
        level = grown
    # each sector stacks the paths that end at its spin j, in lexicographic order
    grouped: dict[YoungDiagram, list[np.ndarray]] = {}
    for path in sorted(level):
        j = path[-1]
        grouped.setdefault(YoungDiagram(round(k / 2 + j), round(k / 2 - j)), []).append(level[path])
    return SchurBasis(k, {lam: np.stack(mats, axis=1) for lam, mats in grouped.items()})


def sym_isometry(k: int, d: int) -> np.ndarray:
    """Isometry from Sym^k(C^d), in the occupation basis, into k d-level legs.

    Columns follow `itertools.combinations_with_replacement(range(d), k)`, the
    basis of the solver's constraint maps: the weight slots, ascending, for
    d = 2 and the pairs i <= j for k = 2. Each of the d^k words (leg 1 the
    most significant digit) lands in the column of its multiset, with
    amplitude one over the square root of the number of words that share it.
    """
    words = np.indices((d,) * k).reshape(k, -1).T
    occupation = (words[:, :, None] == np.arange(d)).sum(axis=1)
    # combinations_with_replacement order is the descending lexicographic
    # order of the occupation vectors
    _, col, count = np.unique(-occupation, axis=0, return_inverse=True, return_counts=True)
    col = col.reshape(-1)  # numpy 2.0.0 returns the inverse as a column
    v = np.zeros((len(col), len(count)))
    v[np.arange(len(col)), col] = 1.0 / np.sqrt(count[col])
    return v


def alpha_coeff(lam: YoungDiagram, omega: float, omega_p: float) -> float:
    """Off-diagonal one-qubit marginal coefficient of a sector cross term.

    The averaged cross term between weights omega and omega_p of a sector
    traces down to alpha * |0><1| on one qubit; alpha vanishes unless
    omega_p = omega + 1.
    """
    j = lam.spin
    if abs(omega_p - omega - 1.0) > 1e-9:
        return 0.0
    lam.weight_index(omega)
    lam.weight_index(omega_p)
    return sqrt((j - omega) * (j + omega + 1)) / lam.k


def diag_coeffs(k: int, omega: float) -> tuple[float, float]:
    """Diagonal one-qubit marginal (t0, t1) of an averaged weight term."""
    t0 = (k - 2 * omega) / (2 * k)
    t1 = (k + 2 * omega) / (2 * k)
    if t0 < -1e-12 or t1 < -1e-12:
        raise ValueError(f"weight {omega} outside -k/2..k/2 for k={k}")
    return t0, t1


def p_coeff(lam: YoungDiagram, omega: float, omega_p: float) -> float:
    """Entrywise rescaling factor between a sector and the top sector.

    Equals 1 on the diagonal; for adjacent weights it is the ratio of the
    alpha coefficient of the sector to that of the top sector, evaluated at
    the lesser weight; all remaining entries factor through the xi vector.
    """
    iw = lam.weight_index(omega)
    iw_p = lam.weight_index(omega_p)
    if iw == iw_p:
        return 1.0
    if abs(iw - iw_p) == 1:
        j = lam.spin
        lo = min(omega, omega_p)
        num = (j - lo) * (j + lo + 1)
        den = (lam.k / 2 - lo) * (lam.k / 2 + lo + 1)
        return sqrt(num / den)
    xi = xi_vector(lam)
    return float(xi[iw] * xi[iw_p])


def xi_vector(lam: YoungDiagram) -> np.ndarray:
    """Unit-bounded amplitudes whose pairwise products fill the rescaling matrix.

    Anchored at the adjacent weight pair with the largest rescaling factor and
    extended outward by the two-term recursion; the factors are unimodal in the
    weight, which keeps every amplitude at most 1.
    """
    nw = lam.num_weights
    if nw == 1:
        return np.ones(1)
    ws = lam.weights()
    p_adj = np.array([p_coeff(lam, ws[i], ws[i + 1]) for i in range(nw - 1)])
    xi = np.zeros(nw)
    anchor = int(np.argmax(p_adj))
    xi[anchor] = xi[anchor + 1] = sqrt(p_adj[anchor])
    for i in range(anchor - 1, -1, -1):
        xi[i] = p_adj[i] / xi[i + 1]
    for i in range(anchor + 2, nw):
        xi[i] = p_adj[i - 1] / xi[i - 1]
    if np.any(xi > 1 + 1e-9):
        raise ArithmeticError(f"xi recursion produced an amplitude above 1 for [{lam.lambda1},{lam.lambda2}]")
    return xi


def coeff_matrix_P(lam: YoungDiagram) -> np.ndarray:
    """Unit-diagonal PSD rescaling matrix xi xi^T + diag(1 - xi^2)."""
    xi = xi_vector(lam)
    p = np.outer(xi, xi) + np.diag(1.0 - xi**2)
    if lam.num_weights >= 2:
        ws = lam.weights()
        for i in range(lam.num_weights - 1):
            p[i, i + 1] = p[i + 1, i] = p_coeff(lam, ws[i], ws[i + 1])
    return p

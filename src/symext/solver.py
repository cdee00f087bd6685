"""Extendibility feasibility by projection splitting.

Every problem here is the intersection of the PSD cone of one Hermitian
block, a state on A tensor Sym^k(C^dB), with an affine set pinning the
(A, B1) marginal of its embedding and the trace. For a qubit B side the
block is the top (fully symmetric) sector, of size dA (k + 1): a k-leg
permutation-invariant extension exists if and only if a bosonic one does, so
this one problem decides both k-symmetric and k-bosonic extendibility. For
the two-leg pair solver (k = 2, any dB) the block is the state on A tensor
the symmetric pair subspace.

The solver runs Douglas-Rachford splitting between the two sets: both
projections are exact (an eigenvalue clip of the block, a precomputed
pseudo-inverse for the affine part) and the governing iterate advances by
reflections. The cone shadow is PSD by construction, so a small constraint
residual on it certifies feasibility outright. Before the first reflection,
the least-norm point of the affine set is tried as it stands: if a Cholesky
factorization of it succeeds it is positive definite, hence its own cone
shadow, and a small residual on it decides FEASIBLE at iteration 1 without
an eigendecomposition. The test runs once, not inside the loop, where a
failed factorization would only add to the cost of the eigh that follows.
Either way the FEASIBLE block is PSD by construction, so its certificate is
built without a second positivity check.

Infeasibility is certified too. When the sets are disjoint, the DR
displacement d = x_n - x_{n+1} converges to the shortest vector from the
affine set to the cone, which lies in the range of A^T and is PSD
(Banjac, Goulart, Stellato and Boyd, JOTA 2019). The least-squares
y = (A A^T)^+ A d is made exact on the cone side by adding -lambda_min(A^T y)
to its trace entry: the trace row's A^T is the identity, so A^T y' is PSD.
If then b^T y' < 0 beyond the rounding of the eigvalsh and of the dot
product, no PSD block X can satisfy A X = b, since that would give
b^T y' = <A^T y', X> >= 0. Read as operators, y' is a Farkas witness
(W, c): W Hermitian on A tensor B, tensored with the identity on the other
legs and compressed to the block's space, plus c I, is PSD, while
tr(W rho) + c < 0. The test costs one eigvalsh and runs at iterations
1, 2, 4, ..., 32 and then at every 32nd; on INFEASIBLE, gap_estimate is the
certified lower bound -b^T y' / ||A^T y'|| on the distance between the two
sets, and the witness is scaled to ||A^T y'|| = 1. A run that reaches
max_iter with neither certificate is UNDECIDED.

The iterate is the block itself, an n x n complex matrix, and the affine
set's linear map A is a real matrix over its flat entries p n + q: the rows
are the marginal's entries i dim_out + j, then the trace. A takes X^H to
A(X)^H, so the affine projection keeps a Hermitian matrix Hermitian, and the
real part of the entrywise inner product is the Frobenius inner product of
Hermitian matrices; b^T y above stands for Re <b, y>. The map depends only
on the shape (k, dA, dB) of the problem, not on the state. It is built in
closed form in the occupation basis |n> of Sym^k(C^dB): tracing out B2..Bk
takes |n><m| to sqrt(n_i m_j) / k times |i><j| when m = n - e_i + e_j, and
to zero otherwise. The map keeps only the columns of the entries it touches
and is cached, read-only, with its Gram pseudo-inverse under the key
(k, dA, dB); only the target vector is built per state, and the affine
projection works on the touched entries alone. At the block cap (k = 64,
dA = 4, dB = 2) the map takes 1.6 MB. The cache evicts the least recently
used maps once they hold more than 64 MB together. Pair maps grow about as
dB^5 (4.3 MiB at dA = 2, dB = 8; 133 MiB at dB = 16), so a map whose dense
array would exceed `caps.DENSE_BYTES_LIMIT` (1 GiB) is refused with a
ValueError before it is allocated (at dA = 2, from dB = 25 on).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import sqrt
from typing import Any

import numpy as np

from .blocks import BlockState
from .caps import BLOCK_CAP, block_cap_error, check_dense_bytes, integer_size
from .linalg import DensityMatrix
from .young import YoungDiagram

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"

# The infeasibility witness is tested at iterations 1, 2, 4, ..., and at
# every multiple of this period.
_WITNESS_PERIOD = 32

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    tol_feasible: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self):
        if self.tol_feasible <= 0:
            raise ValueError("tol_feasible must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


_DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class Witness:
    """Farkas certificate that a state has no extension.

    w is Hermitian on A tensor B and c real. The operator Z = w tensor I,
    with the identity on the other legs, compressed to the solver's block
    space, plus c times the identity, is PSD, while tr(w rho) + c < 0: an
    extension sigma of rho in that space would give
    tr(w rho) + c = tr(Z sigma) >= 0. It is scaled so that Z has unit
    Frobenius norm.
    """

    w: np.ndarray
    c: float

    def value(self, rho: DensityMatrix) -> float:
        """tr(w rho) + c, negative for the state the witness was found for."""
        return float(np.vdot(self.w, rho.matrix).real) + self.c


@dataclass
class SolverReport:
    """The verdict of one solve.

    residual is the constraint residual of the certificate on FEASIBLE, of
    the last iterate on INFEASIBLE, and the smallest one seen on UNDECIDED.
    gap_estimate is 0.0 on FEASIBLE, the certified lower bound on the
    distance between the two sets on INFEASIBLE, and on UNDECIDED the length
    of the last Douglas-Rachford step, ||x_max_iter - x_(max_iter - 1)||.
    """

    status: str
    residual: float
    gap_estimate: float
    iterations: int
    certificate: Any = None
    witness: Witness | None = None


# Bound on the bytes of the cached constraint maps: room for many shapes, so
# that a batch cycling through a handful of them builds each map once.
_MAP_CACHE_BYTES = 64 * 2**20


def _norm(z: np.ndarray) -> float:
    """Euclidean norm of a complex vector, by the formula of np.linalg.norm and bit for bit equal to it."""
    re, im = z.real, z.imag
    return sqrt(re.dot(re) + im.dot(im))


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real matrix a and a complex vector z, without a complex copy of a."""
    return (a @ z.view(np.float64).reshape(-1, 2)).view(np.complex128).reshape(-1)


def _cone_project(x: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a Hermitian x in the Frobenius norm (eigenvalue clip)."""
    w, u = np.linalg.eigh(x)
    np.maximum(w, 0.0, out=w)
    return (u * w) @ u.conj().T


@dataclass(frozen=True)
class _ConstraintMap:
    """The affine constraint's linear map, restricted to the block entries it touches.

    The variable is one n x n Hermitian block, read as its flat entries
    p * n + q. The map is real: its rows are the entries i * dim_out + j of
    the pinned marginal, then the trace; `amap` holds the columns of the
    entries `cols` (ascending), and every other column of the full map is
    zero. All arrays are read-only.
    """

    n: int
    cols: np.ndarray
    amap: np.ndarray
    gram_pinv: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.cols.nbytes + self.amap.nbytes + self.gram_pinv.nbytes


def _compact_map(n: int, dim_out: int, p, q, i, j, coeff) -> _ConstraintMap:
    """Constraint map of a linear map from an n x n block to a marginal.

    p, q, i, j and coeff are arrays of one length: entry (p, q) of the block
    adds coeff (real) times itself to entry (i, j) of the dim_out x dim_out
    marginal; repeated terms add up. The last row is the trace.
    """
    trace_row = dim_out * dim_out
    rows = np.concatenate([i * dim_out + j, np.full(n, trace_row)])
    cols = np.concatenate([p * n + q, np.arange(n) * (n + 1)])
    vals = np.concatenate([coeff, np.ones(n)])
    is_touched = np.zeros(n * n, dtype=bool)
    is_touched[cols] = True
    touched = np.flatnonzero(is_touched)
    check_dense_bytes(
        f"constraint map of a {n} x {n} block onto a {dim_out} x {dim_out} marginal", (trace_row + 1) * len(touched) * 8
    )
    flat = rows * len(touched) + np.searchsorted(touched, cols)
    amap = np.bincount(flat, weights=vals, minlength=(trace_row + 1) * len(touched)).reshape(trace_row + 1, -1)
    gram_pinv = np.linalg.pinv(amap @ amap.T, hermitian=True)
    for a in (touched, amap, gram_pinv):
        a.flags.writeable = False
    return _ConstraintMap(n, touched, amap, gram_pinv)


class _MapCache:
    """Constraint maps by key, least recently used first out, bounded in bytes.

    The newest map always stays, so one map larger than the bound is built
    once per solve rather than refused.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._maps: OrderedDict = OrderedDict()

    def get(self, key, build) -> _ConstraintMap:
        cmap = self._maps.get(key)
        if cmap is not None:
            self._maps.move_to_end(key)
            return cmap
        cmap = self._maps[key] = build()
        while len(self._maps) > 1 and sum(m.nbytes for m in self._maps.values()) > self.max_bytes:
            self._maps.popitem(last=False)
        return cmap


_MAPS = _MapCache(_MAP_CACHE_BYTES)


def _farkas(cmap: _ConstraintMap, b: np.ndarray, d: np.ndarray):
    """A Farkas vector y' from the DR displacement d, or None.

    y' has A^T y' PSD, with a margin for the rounding of the eigvalsh, and
    b^T y' < 0 beyond the rounding of the dot product; it is scaled to
    ||A^T y'|| = 1, so -b^T y' bounds the distance between the two sets from
    below. The trace row is last, and its A^T is the identity.
    """
    n, cols, amap = cmap.n, cmap.cols, cmap.amap
    y = _real_times(cmap.gram_pinv, _real_times(amap, d.reshape(-1)[cols]))
    z = np.zeros(n * n, dtype=complex)
    z[cols] = _real_times(amap.T, y)
    w = np.linalg.eigvalsh(z.reshape(n, n))
    y[-1] += 8 * n * _EPS * max(abs(w[0]), abs(w[-1])) - w[0]
    value = float(np.vdot(b, y).real)
    if value >= -2 * len(b) * _EPS * float(np.abs(b) @ np.abs(y)):
        return None
    return y / _norm(_real_times(amap.T, y))


def _douglas_rachford(cmap: _ConstraintMap, b: np.ndarray, cfg: SolverConfig):
    """Returns (status, residual, gap_estimate, iterations, x).

    x is the feasible block on FEASIBLE, the scaled Farkas vector on
    INFEASIBLE and None on UNDECIDED.
    """
    n, cols, amap, gram_pinv = cmap.n, cmap.cols, cmap.amap, cmap.gram_pinv
    at = amap.T

    def affine_project(z: np.ndarray) -> np.ndarray:
        # in place; entries outside cols are not constrained
        flat = z.reshape(-1)
        flat[cols] -= _real_times(at, _real_times(gram_pinv, _real_times(amap, flat[cols]) - b))
        return z

    def residual(y: np.ndarray) -> float:
        return _norm(_real_times(amap, y.reshape(-1)[cols]) - b)

    # the least-norm point A^T (A A^T)^+ b, which is affine_project(0): A 0 - b
    # is exactly -b, and adding to zeros keeps the +0 that subtracting gives
    x = np.zeros((n, n), dtype=complex)
    x.reshape(-1)[cols] += _real_times(at, _real_times(gram_pinv, b))
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        pass
    else:
        res = residual(x)
        if res <= cfg.tol_feasible:
            return FEASIBLE, res, 0.0, 1, x
    best_res = np.inf
    for it in range(1, cfg.max_iter + 1):
        y = _cone_project(x)
        res = residual(y)
        best_res = min(best_res, res)
        if res <= cfg.tol_feasible:
            return FEASIBLE, res, 0.0, it, y
        nxt = x + affine_project(2.0 * y - x) - y
        if it % _WITNESS_PERIOD == 0 or it & (it - 1) == 0:
            farkas = _farkas(cmap, b, x - nxt)
            if farkas is not None:
                return INFEASIBLE, res, -float(np.vdot(b, farkas).real), it, farkas
        x, prev = nxt, x
    # the length of the last step, measured only here, where it is reported
    return UNDECIDED, best_res, _norm((x - prev).reshape(-1)), cfg.max_iter, None


def _sym_map(k: int, dA: int, dB: int) -> _ConstraintMap:
    """Map of a state on A tensor Sym^k(C^dB) to the (A, B1) marginal of its
    embedding in A tensor B^k, and its trace.

    The basis of Sym^k(C^dB) is the occupation vectors n, one per multiset of
    k legs in `itertools.combinations_with_replacement` order: the weight
    slots, ascending, for dB = 2, and the pairs i <= j for k = 2. Tracing out
    B2..Bk takes |n><m| to sqrt(n_i m_j) / k times |i><j| when n = r + e_i and
    m = r + e_j for one multiset r of k - 1 legs, and to zero otherwise.
    """
    legs = range(dB)
    slot = {n: s for s, n in enumerate(combinations_with_replacement(legs, k))}
    hops = [
        (slot[tuple(sorted(r + (i,)))], slot[tuple(sorted(r + (j,)))], i, j,
         sqrt((r.count(i) + 1) * (r.count(j) + 1)) / k)
        for r in combinations_with_replacement(legs, k - 1)
        for i in legs
        for j in legs
    ]
    s, t, i, j, coeff = (np.array(x) for x in zip(*hops))
    nsym = len(slot)
    a, c = (x[:, None] for x in np.divmod(np.arange(dA * dA), dA))
    terms = np.broadcast_arrays(a * nsym + s, c * nsym + t, a * dB + i, c * dB + j, coeff)
    return _compact_map(dA * nsym, dA * dB, *(x.ravel() for x in terms))


def _solve_sym(rho_ab: DensityMatrix, k: int, cfg: SolverConfig | None, certify) -> SolverReport:
    """Decide whether rho_ab is the (A, B1) marginal of a state on A tensor Sym^k(C^dB).

    On FEASIBLE the certificate is certify(block, atol), with the state's
    block in the basis of `_sym_map`; the block is PSD by construction (it
    passed a Cholesky factorization or is an eigenvalue clip), so certify
    need not check positivity. On INFEASIBLE the report carries the Farkas
    witness.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    dA, dB = rho_ab.dims
    cmap = _MAPS.get((k, dA, dB), lambda: _sym_map(k, dA, dB))
    # the marginal's entries, then the trace
    m = rho_ab.matrix.size
    b = np.empty(m + 1, dtype=complex)
    b[:m] = rho_ab.matrix.reshape(-1)
    b[m] = 1.0
    status, res, gap, it, x = _douglas_rachford(cmap, b, cfg)
    report = SolverReport(status, res, gap, it)
    if status == FEASIBLE:
        report.certificate = certify(x, max(1e-6, 10 * cfg.tol_feasible))
    elif status == INFEASIBLE:
        w = x[:-1].reshape(dA * dB, dA * dB)
        report.witness = Witness((w + w.conj().T) / 2, float(x[-1].real))
    return report


# The top sector [k, 0] of each k, built once: a YoungDiagram is immutable.
_top_sector = lru_cache(maxsize=1024)(lambda k: YoungDiagram(k, 0))


def solve_symmetric(rho_ab: DensityMatrix, k: int, cfg: SolverConfig | None = None) -> SolverReport:
    """Decide k-extendibility of rho_ab with the extension confined to the top sector.

    For a qubit B side a k-leg permutation-invariant extension exists if and
    only if a bosonic one does, so this one problem decides both; it is bound
    to both names, and the certificate holds the top sector alone.
    """
    k = integer_size("k", k)
    if len(rho_ab.dims) != 2 or rho_ab.dims[1] != 2:
        raise ValueError(f"layout {rho_ab.dims} is not (A, qubit); use the generic pair solver for other B dimensions")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > BLOCK_CAP:
        raise block_cap_error(k)
    dA = rho_ab.dims[0]
    return _solve_sym(
        rho_ab, k, cfg, lambda top, atol: BlockState(k, dA, {_top_sector(k): top}, atol=atol, check_psd=False)
    )


solve_bosonic = solve_symmetric


def solve_bosonic_k2_generic(rho_ab: DensityMatrix, dB: int, cfg: SolverConfig | None = None) -> SolverReport:
    """Two-leg bosonic extendibility for any B dimension.

    The variable lives on A tensor the symmetric pair subspace; the affine set
    pins the (A, B1) marginal of its embedding. The certificate is the state
    on that subspace, in the basis of `schur.sym_isometry(2, dB)`.
    """
    dB = integer_size("dB", dB)
    if len(rho_ab.dims) != 2 or rho_ab.dims[1] != dB:
        raise ValueError(f"layout {rho_ab.dims} does not match a B dimension of {dB}")
    dims = (rho_ab.dims[0], dB * (dB + 1) // 2)
    return _solve_sym(rho_ab, 2, cfg, lambda pair, atol: DensityMatrix(pair, dims, atol=atol, check_psd=False))


def qutrit_counterexample(coeffs=(1.0, 2.0, 3.0)):
    """Three-qutrit pure state antisymmetric over the two B systems.

    Returns (pair_marginal, full_state, ket). The full state is a two-leg
    swap-invariant extension of the marginal; with pairwise distinct
    coefficients the marginal admits no bosonic two-leg extension, so the
    symmetric/bosonic equivalence seen for qubit B sides stops at dB = 3.
    """
    a, b, c = (float(x) for x in coeffs)
    ket = np.zeros(27)

    def idx(x, y, z):
        return 9 * x + 3 * y + z

    ket[idx(0, 1, 2)] = a
    ket[idx(0, 2, 1)] = -a
    ket[idx(1, 2, 0)] = b
    ket[idx(1, 0, 2)] = -b
    ket[idx(2, 0, 1)] = c
    ket[idx(2, 1, 0)] = -c
    ket /= sqrt(2 * (a * a + b * b + c * c))
    full = DensityMatrix.from_ket(ket, (3, 3, 3))
    marginal = DensityMatrix(full.marginal((0, 1)), (3, 3), check_psd=False)
    return marginal, full, ket

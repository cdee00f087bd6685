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
Either way the FEASIBLE block is PSD by construction, with a residual,
trace row included, of at most 1e-8 and finite entries. So the certificate,
the block's Hermitian part (x + x^H) / 2, is assembled with no check at all
(`_certificate` gives the reason each check holds); the checked constructor
stays for every block that comes from a file or a user.

Infeasibility is certified too. When the sets are disjoint, the DR
displacement d = x_n - x_{n+1} converges to the shortest vector from the
affine set to the cone, which lies in the range of A^T and is PSD
(Banjac, Goulart, Stellato and Boyd, JOTA 2019). Its multiplier G A d,
with G = (A A^T)^+, equals G r for the residual r = A y_n - b of the cone
shadow y_n, so it is read before the step: A P_aff(z) = Pi b for every z,
with Pi = A A^T G, and G Pi = G. `_farkas` takes any multiplier vector y,
makes its marginal part Hermitian and its trace entry real, so that the
vector tested is the one reported, and adds -lambda_min(A^T y) to that
entry: the trace row's A^T is the identity, so A^T y' is PSD.
If then b^T y' < 0 beyond the rounding of the eigvalsh and of the dot
product, no PSD block X can satisfy A X = b, since that would give
b^T y' = <A^T y', X> >= 0. Read as operators, y' is a Farkas witness
(W, c): W Hermitian on A tensor B, tensored with the identity on the other
legs and compressed to the block's space, plus c I, is PSD, while
tr(W rho) + c < 0. The test costs one eigvalsh and runs at iterations
1, 2, 4, ..., 32 and then at every 32nd; on INFEASIBLE, gap_estimate is the
certified lower bound -b^T y' / ||A^T y'|| on the distance between the two
sets, and the witness is scaled to ||A^T y'|| = 1. A run that reaches
`_MAX_ITER` (20,000) iterations with neither certificate is UNDECIDED.

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
from itertools import combinations_with_replacement
from math import isqrt, sqrt
from typing import Any

import numpy as np

from .caps import block_k, check_dense_bytes, integer_size
from .convert import BosonicState
from .linalg import DensityMatrix
from .young import top_sector

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"

# The infeasibility witness is tested at iterations 1, 2, 4, ..., and at
# every multiple of this period.
_WITNESS_PERIOD = 32

_EPS = np.finfo(float).eps

# A block whose constraint residual is at most _TOL_FEASIBLE is FEASIBLE; a run
# of _MAX_ITER iterations with no certificate either way is UNDECIDED.
_TOL_FEASIBLE = 1e-8
_MAX_ITER = 20000


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
    distance between the two sets on INFEASIBLE, and on UNDECIDED, after
    `_MAX_ITER` iterations, the length of the last Douglas-Rachford step,
    ||x_n - x_(n - 1)|| with n = _MAX_ITER.
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

    The bound is `_MAP_CACHE_BYTES`, read at each eviction. The newest map
    always stays, so one map larger than the bound is built once per solve
    rather than refused.
    """

    def __init__(self):
        self._maps: OrderedDict = OrderedDict()

    def get(self, key, build) -> _ConstraintMap:
        cmap = self._maps.get(key)
        if cmap is not None:
            self._maps.move_to_end(key)
            return cmap
        cmap = self._maps[key] = build()
        while len(self._maps) > 1 and sum(m.nbytes for m in self._maps.values()) > _MAP_CACHE_BYTES:
            self._maps.popitem(last=False)
        return cmap


_MAPS = _MapCache()


def _farkas(cmap: _ConstraintMap, b: np.ndarray, y: np.ndarray):
    """The Farkas vector y' made of a multiplier vector y, or None.

    y' has a Hermitian marginal part, a real trace entry and A^T y' PSD, with
    a margin for the rounding of the eigvalsh; it is returned when
    b^T y' < 0 beyond the rounding of the dot product, scaled to
    ||A^T y'|| = 1, so -b^T y' bounds the distance between the two sets from
    below. The trace row is last, and its A^T is the identity.
    """
    n = cmap.n
    y = y.astype(complex)
    # the vector tested is the one reported: eigvalsh reads only the lower
    # triangle of A^T y, so y's marginal part must be Hermitian, its trace real
    m = isqrt(len(y) - 1)
    marginal = y[:-1].reshape(m, m)
    marginal[...] = (marginal + marginal.conj().T) / 2
    y[-1] = y[-1].real
    z = np.zeros(n * n, dtype=complex)
    z[cmap.cols] = _real_times(cmap.amap.T, y)
    w = np.linalg.eigvalsh(z.reshape(n, n))
    shift = 8 * n * _EPS * max(abs(w[0]), abs(w[-1])) - w[0]
    y[-1] += shift
    value = float(np.vdot(b, y).real)
    if value >= -2 * len(b) * _EPS * float(np.abs(b) @ np.abs(y)):
        return None
    z[:: n + 1] += shift
    return y / _norm(z)


def _douglas_rachford(cmap: _ConstraintMap, b: np.ndarray):
    """Returns (status, residual, gap_estimate, iterations, x).

    x is the feasible block on FEASIBLE, the scaled Farkas vector on
    INFEASIBLE and None on UNDECIDED.
    """
    n, cols, amap, gram_pinv = cmap.n, cmap.cols, cmap.amap, cmap.gram_pinv
    at = amap.T

    def residual(y: np.ndarray) -> np.ndarray:
        return _real_times(amap, y.reshape(-1)[cols]) - b

    def affine_project(z: np.ndarray) -> np.ndarray:
        # in place; entries outside cols are not constrained
        z.reshape(-1)[cols] -= _real_times(at, _real_times(gram_pinv, residual(z)))
        return z

    # the least-norm point A^T (A A^T)^+ b, which is affine_project(0): A 0 - b
    # is exactly -b, and adding to zeros keeps the +0 that subtracting gives
    x = np.zeros((n, n), dtype=complex)
    x.reshape(-1)[cols] += _real_times(at, _real_times(gram_pinv, b))
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        pass
    else:
        res = _norm(residual(x))
        if res <= _TOL_FEASIBLE:
            return FEASIBLE, res, 0.0, 1, x
    best_res = np.inf
    for it in range(1, _MAX_ITER + 1):
        y = _cone_project(x)
        r = residual(y)
        res = _norm(r)
        best_res = min(best_res, res)
        if res <= _TOL_FEASIBLE:
            return FEASIBLE, res, 0.0, it, y
        if it % _WITNESS_PERIOD == 0 or it & (it - 1) == 0:
            # G r is G A (x - x_next), the multiplier of the displacement
            farkas = _farkas(cmap, b, _real_times(gram_pinv, r))
            if farkas is not None:
                return INFEASIBLE, res, -float(np.vdot(b, farkas).real), it, farkas
        x, prev = x + affine_project(2.0 * y - x) - y, x
    # the length of the last step, measured only here, where it is reported
    return UNDECIDED, best_res, _norm((x - prev).reshape(-1)), _MAX_ITER, None


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


def _solve_sym(rho_ab: DensityMatrix, k: int, certify) -> SolverReport:
    """Decide whether rho_ab is the (A, B1) marginal of a state on A tensor Sym^k(C^dB).

    On FEASIBLE the certificate is certify(block), with the state's block in
    the basis of `_sym_map`. The block is PSD by construction (it passed a
    Cholesky factorization or is an eigenvalue clip), its constraint
    residual, trace row included, is at most _TOL_FEASIBLE, and its entries
    are finite: so certify need not check positivity, and the qubit solver's
    `_certificate` checks nothing at all. On INFEASIBLE the report carries
    the Farkas witness.
    """
    dA, dB = rho_ab.dims
    cmap = _MAPS.get((k, dA, dB), lambda: _sym_map(k, dA, dB))
    # the marginal's entries, then the trace
    m = rho_ab.matrix.size
    b = np.empty(m + 1, dtype=complex)
    b[:m] = rho_ab.matrix.reshape(-1)
    b[m] = 1.0
    status, res, gap, it, x = _douglas_rachford(cmap, b)
    report = SolverReport(status, res, gap, it)
    if status == FEASIBLE:
        report.certificate = certify(x)
    elif status == INFEASIBLE:
        # _farkas leaves the marginal part Hermitian and the trace entry real
        report.witness = Witness(x[:-1].reshape(dA * dB, dA * dB), float(x[-1].real))
    return report


def _certificate(k: int, dA: int, x: np.ndarray) -> BosonicState:
    """The BosonicState of a FEASIBLE block x, assembled without a check.

    The block is the top sector's, so the certificate is already a bosonic
    extension, and `convert.sym_to_bos` returns it as it is. Its block is
    h = (x + x^H) * 0.5, the expression `linalg.hermitian_part` returns,
    made read-only; BlockState's checks hold by what the solve established:
    - trace: the last row of the map is the trace, so |tr x - 1| is at most
      the residual, 1e-8; Re tr h equals Re tr x bit for bit, and the tableau
      count of [k, 0] is 1;
    - finiteness: the residual test fails on a non-finite touched entry; the
      other entries are exact zeros on the Cholesky path, and on the eigh
      path entries of u diag(w) u^H, which a non-finite w would make
      non-finite everywhere, the touched diagonal included;
    - Hermitian deviation: it is rounding alone, on a PSD unit-trace block
      of norm at most 1, far below BlockState's 1e-6; for the same reason
      x + x^H cannot overflow;
    - positivity: x passed a Cholesky factorization or is an eigenvalue
      clip, and the sector and shape are those of the solver's own map.
    """
    h = (x + x.conj().T) * 0.5
    h.flags.writeable = False
    return BosonicState._assembled(k, dA, {top_sector(k): h})


def solve_symmetric(rho_ab: DensityMatrix, k: int) -> SolverReport:
    """Decide k-extendibility of rho_ab with the extension confined to the top sector.

    For a qubit B side a k-leg permutation-invariant extension exists if and
    only if a bosonic one does, so this one problem decides both; it is bound
    to both names, and the certificate is a BosonicState.
    """
    k = integer_size("k", k)
    if len(rho_ab.dims) != 2 or rho_ab.dims[1] != 2:
        raise ValueError(f"layout {rho_ab.dims} is not (A, qubit); use the generic pair solver for other B dimensions")
    block_k(k)
    dA = rho_ab.dims[0]
    return _solve_sym(rho_ab, k, lambda x: _certificate(k, dA, x))


solve_bosonic = solve_symmetric


def solve_bosonic_k2_generic(rho_ab: DensityMatrix) -> SolverReport:
    """Two-leg bosonic extendibility for a bipartite rho_ab with any B dimension dB.

    The variable lives on A tensor the symmetric pair subspace; the affine set
    pins the (A, B1) marginal of its embedding. The certificate is the state
    on that subspace, of layout (dA, dB (dB + 1) / 2), in the basis of the
    columns of `schur.sym_isometry(2, dB)`: the pairs i <= j in
    `itertools.combinations_with_replacement` order. Lifted by
    np.kron(np.eye(dA), sym_isometry(2, dB)) it is a (dA, dB, dB) state
    that `convert.verify_extension(..., k=2)` checks.
    """
    if len(rho_ab.dims) != 2:
        raise ValueError(f"layout {rho_ab.dims} is not bipartite")
    dA, dB = rho_ab.dims
    dims = (dA, dB * (dB + 1) // 2)
    return _solve_sym(rho_ab, 2, lambda pair: DensityMatrix(pair, dims, atol=1e-6, check_psd=False))


def qutrit_counterexample():
    """Three-qutrit pure state antisymmetric over the two B systems.

    Returns (pair_marginal, full_state, ket). The ket is
    (|012> - |021>) + 2 (|120> - |102>) + 3 (|201> - |210>), normalised by
    sqrt(28). The full state is a two-leg swap-invariant extension of the
    marginal; with the pairwise distinct amplitudes 1, 2 and 3 the marginal
    admits no bosonic two-leg extension, so the symmetric/bosonic
    equivalence seen for qubit B sides stops at dB = 3.
    """
    ket = np.zeros(27)
    # |xyz> is entry 9 x + 3 y + z
    for (x, y, z), amp in (((0, 1, 2), 1.0), ((1, 2, 0), 2.0), ((2, 0, 1), 3.0)):
        ket[9 * x + 3 * y + z] = amp
        ket[9 * x + 3 * z + y] = -amp
    ket /= sqrt(28.0)
    full = DensityMatrix.from_ket(ket, (3, 3, 3))
    marginal = DensityMatrix(full.marginal((0, 1)), (3, 3), check_psd=False)
    return marginal, full, ket

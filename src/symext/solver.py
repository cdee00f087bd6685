"""Extendibility feasibility by projection splitting.

Every problem here is the intersection of the PSD cone of one Hermitian
block, a state on A tensor Sym^k(C^dB), with an affine set pinning the
(A, B1) marginal of its embedding and the trace. For a qubit B side the
block is the top (fully symmetric) sector, of size dA (k + 1): a k-leg
permutation-invariant extension exists if and only if a bosonic one does, so
this one problem decides both k-symmetric and k-bosonic extendibility. For
dB >= 3 it decides k-bosonic extendibility alone, which asks more
(`qutrit_counterexample`).

The solver runs Douglas-Rachford splitting between the two sets: both
projections are exact (an eigenvalue clip of the block, a precomputed
pseudo-inverse for the affine part) and the governing iterate advances by
reflections. The cone shadow is PSD by construction, so a small constraint
residual on it certifies feasibility outright. Before the first reflection,
the least-norm point of the affine set is tried as it stands: if a Cholesky
factorization of it succeeds (`linalg.is_positive_definite`) it is positive
definite, hence its own cone shadow, and a small residual on it decides
FEASIBLE at iteration 1 without an eigendecomposition. That residual is
read off the least-norm vector A^T (A A^T)^+ b itself, which the block's
touched entries equal but for a -0 turned into +0, so its norm is the
block's. The test runs once, not inside the loop, where a failed
factorization would only add to the cost of the eigh that follows. Every
factorization here, that test, the clip's `linalg.eigh` and the Farkas
test's `linalg.eigvalsh`, goes through the seam in `linalg`, which calls
numpy's LAPACK gufuncs without the `numpy.linalg` wrapper and gives its
results bit for bit.
Either way the FEASIBLE block is PSD by construction, with a residual,
trace row included, of at most 1e-8 and finite entries. So the qubit
certificate, the block's Hermitian part (x + x^H) / 2, is the one state
assembled with no check at all (`_certificate` gives the reason each check
holds); the dB >= 3 one is a DensityMatrix built with checked=False, which
keeps the Hermitian checks. Every state from a file or a user is checked.

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
tr(W rho) + c < 0. The test costs one `linalg.eigvalsh` and runs at
iterations 1, 2, 4, ..., 32 and then at every 32nd; on INFEASIBLE,
gap_estimate is the certified lower bound -b^T y' / ||A^T y'|| on the
distance between the two sets, and the witness is scaled to
||A^T y'|| = 1. A run that reaches `_MAX_ITER` (20,000) iterations with
neither certificate is UNDECIDED.

The iterate is the block itself, an n x n complex matrix, and the affine
set's linear map A is a real matrix over its flat entries p n + q: the rows
are the marginal's entries i dim_out + j, then the trace. A takes X^H to
A(X)^H, so the affine projection keeps a Hermitian matrix Hermitian, and the
real part of the entrywise inner product is the Frobenius inner product of
Hermitian matrices; b^T y above stands for Re <b, y>. Being real, A acts on
the real and imaginary parts alike, so each product with it is one BLAS call
on the (rows, 2) float pair view of a complex vector (`_real_times`): b is
viewed once per solve, and a complex view is taken only where complex
numbers are needed, to gather or scatter the block's entries, for the Farkas
vector and its tests. The map depends only on the shape (k, dA, dB) of the
problem, not on the state. One function, `_sym_map`, builds it in closed
form in the occupation basis of Sym^k(C^dB), keeping only the columns of
the entries it touches, and one cache, `constraint_map`, holds it,
read-only, with its Gram pseudo-inverse under the key (k, dA, dB); only the
target vector is built per state, and the affine projection works on the
touched entries alone. At the block cap (k = 64, dA = 4, dB = 2) the map
takes 1.6 MB. The cache evicts the least recently used maps once they hold
more than 64 MB together. At k = 2 the map grows about as dB^5 (4.3 MiB at dA = 2,
dB = 8; 133 MiB at dB = 16). `_sym_map` refuses with a ValueError, before it
allocates either, a problem whose block would take more than
`caps.DENSE_BYTES_LIMIT` (1 GiB) in a DR iteration (at dA = dB = 3, from
k = 43 on), then one whose dense map would (at dA = 2, k = 2, from dB = 25
on).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, sqrt
from typing import Any

import numpy as np

from .blocks import BosonicState
from .caps import block_k, check_dense_bytes
from .linalg import DensityMatrix, eigh, eigvalsh, is_positive_definite
from .young import top_sector

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"

# The infeasibility witness is tested at iterations 1, 2, 4, ..., and at
# every multiple of this period.
_WITNESS_PERIOD = 32

_EPS = float(np.finfo(float).eps)

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


# The cached constraint maps by key (k, dA, dB), least recently used first
# (`constraint_map`), and the bound on their bytes: room for many shapes, so
# that a batch cycling through a handful of them builds each map once.
_MAPS: OrderedDict = OrderedDict()
_MAP_CACHE_BYTES = 64 * 2**20


def _norm(z: np.ndarray) -> float:
    """Euclidean norm of a complex vector given as its (rows, 2) float pairs, by
    the formula of np.linalg.norm on the complex vector and bit for bit equal
    to it."""
    re, im = z[:, 0], z[:, 1]
    return sqrt(re.dot(re) + im.dot(im))


def _pair_view(z: np.ndarray) -> np.ndarray:
    """The (rows, 2) float pairs of a C-contiguous complex array, as a view."""
    return z.view(np.float64).reshape(-1, 2)


def _complex_view(z: np.ndarray) -> np.ndarray:
    """The complex vector of (rows, 2) float pairs, as a view."""
    return z.view(np.complex128).ravel()


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a z for a real matrix a and a complex vector z, both vectors as their
    (rows, 2) float pairs: one BLAS matrix product, with no complex copy of a.

    It is a @ z bit for bit; ndarray.dot reaches the same product with less
    dispatch than the @ operator. Every product of the solver with its map
    goes through here.
    """
    return a.dot(z)


def _cone_project(x: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a Hermitian x in the Frobenius norm (eigenvalue clip)."""
    w, u = eigh(x)
    np.maximum(w, 0.0, out=w)
    return (u * w) @ u.conj().T


@dataclass(frozen=True)
class _ConstraintMap:
    """The affine constraint's linear map, restricted to the block entries it touches.

    The variable is one n x n Hermitian block, read as its flat entries
    p * n + q. The map is real: its rows are the entries i * dim_out + j of
    the dim_out x dim_out pinned marginal, then the trace; `amap` holds the
    columns of the entries `cols` (ascending), and every other column of the
    full map is zero. `at` is the view amap.T, and dim_out the marginal's
    side, so that a solve takes neither afresh. All arrays are read-only.
    """

    n: int
    dim_out: int
    cols: np.ndarray
    amap: np.ndarray
    at: np.ndarray
    gram_pinv: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.cols.nbytes + self.amap.nbytes + self.gram_pinv.nbytes


def _farkas(cmap: _ConstraintMap, b: np.ndarray, y: np.ndarray):
    """The Farkas vector y' made of a multiplier vector y, or None.

    y is given as its (rows, 2) float pairs and is overwritten; y' is
    complex. It has a Hermitian marginal part, a real trace entry and A^T y'
    PSD, with a margin for the rounding of the eigvalsh; it is returned when
    b^T y' < 0 beyond the rounding of the dot product, scaled to
    ||A^T y'|| = 1, so -b^T y' bounds the distance between the two sets from
    below. The trace row is last, and its A^T is the identity. The marginal
    part is made Hermitian in place, m += m^H then m *= 0.5: m^H is a copy,
    so these are the bits of (m + m^H) / 2.
    """
    n, d = cmap.n, cmap.dim_out
    yc = _complex_view(y)
    # the vector tested is the one reported: eigvalsh reads only the lower
    # triangle of A^T y, so y's marginal part must be Hermitian, its trace real
    marginal = yc[:-1].reshape(d, d)
    marginal += marginal.conj().T
    marginal *= 0.5
    y[-1, 1] = 0.0
    z = np.zeros(n * n, dtype=complex)
    z[cmap.cols] = _complex_view(_real_times(cmap.at, y))
    w = eigvalsh(z.reshape(n, n))
    lo, hi = float(w[0]), float(w[-1])
    shift = 8 * n * _EPS * max(abs(lo), abs(hi)) - lo
    y[-1, 0] += shift
    value = float(np.vdot(b, yc).real)
    if value >= -2 * len(b) * _EPS * float(np.abs(b) @ np.abs(yc)):
        return None
    z[:: n + 1] += shift
    return yc / _norm(_pair_view(z))


def _douglas_rachford(cmap: _ConstraintMap, b: np.ndarray):
    """Returns (status, residual, gap_estimate, iterations, x).

    x is the feasible block on FEASIBLE, the scaled Farkas vector on
    INFEASIBLE and None on UNDECIDED. Every product with the map runs on the
    (rows, 2) float pairs of a complex vector (`_real_times`); the block's
    touched entries are gathered and scattered as complex numbers. The
    pre-check reads its residual off the least-norm vector v it scatters
    into the zero block: the block's touched entries are 0 + v, which is v
    but for a -0 turned into +0, so the two residuals have the same norm.
    """
    n, cols, amap, at, gram_pinv = cmap.n, cmap.cols, cmap.amap, cmap.at, cmap.gram_pinv
    b2 = _pair_view(b)
    # the least-norm point A^T (A A^T)^+ b, which is affine_project(0): A 0 - b
    # is exactly -b, and adding to zeros keeps the +0 that subtracting gives
    v = _real_times(at, _real_times(gram_pinv, b2))
    x = np.zeros((n, n), dtype=complex)
    x.reshape(-1)[cols] += _complex_view(v)
    if is_positive_definite(x):
        r = _real_times(amap, v)
        r -= b2
        res = _norm(r)
        if res <= _TOL_FEASIBLE:
            return FEASIBLE, res, 0.0, 1, x

    def residual(y: np.ndarray) -> np.ndarray:
        r = _real_times(amap, _pair_view(y.reshape(-1)[cols]))
        r -= b2
        return r

    def affine_project(z: np.ndarray) -> np.ndarray:
        # in place; entries outside cols are not constrained
        z.reshape(-1)[cols] -= _complex_view(_real_times(at, _real_times(gram_pinv, residual(z))))
        return z

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
    return UNDECIDED, best_res, _norm(_pair_view(x - prev)), _MAX_ITER, None


def _sym_map(k: int, dA: int, dB: int) -> _ConstraintMap:
    """Map of a state on A tensor Sym^k(C^dB) to the (A, B1) marginal of its
    embedding in A tensor B^k, and its trace: the solver's one map builder.

    The basis of Sym^k(C^dB) is the occupation vectors n, one per multiset of
    k legs in `itertools.combinations_with_replacement` order: the weight
    slots, ascending, for dB = 2, and the pairs i <= j for k = 2. Tracing out
    B2..Bk takes |n><m| to sqrt(n_i m_j) / k times |i><j| when n = r + e_i and
    m = r + e_j for one multiset r of k - 1 legs, and to zero otherwise;
    repeated terms add up, and the last row is the trace. The block is
    charged first, at eight times its 16 n^2 bytes: a DR iteration peaks at
    about seven blocks; then the dense map over the touched columns.
    """
    n = dA * comb(dB + k - 1, k)
    check_dense_bytes(f"the {n} x {n} block of A tensor Sym^{k}(C^{dB})", 8 * 16 * n * n)
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
    nsym, d = len(slot), dA * dB
    trace_row = d * d
    a, c = (x[:, None] for x in np.divmod(np.arange(dA * dA), dA))
    rows = np.concatenate([((a * dB + i) * d + c * dB + j).ravel(), np.full(n, trace_row)])
    cols = np.concatenate([((a * nsym + s) * n + c * nsym + t).ravel(), np.arange(n) * (n + 1)])
    vals = np.concatenate([np.tile(coeff, dA * dA), np.ones(n)])
    # a mask, not np.unique, which imports numpy.ma (1.2 MB of RSS) on numpy 2.4
    is_touched = np.zeros(n * n, dtype=bool)
    is_touched[cols] = True
    touched = np.flatnonzero(is_touched)
    check_dense_bytes(
        f"constraint map of a {n} x {n} block onto a {d} x {d} marginal", (trace_row + 1) * len(touched) * 8
    )
    flat = rows * len(touched) + np.searchsorted(touched, cols)
    amap = np.bincount(flat, weights=vals, minlength=(trace_row + 1) * len(touched)).reshape(trace_row + 1, -1)
    gram_pinv = np.linalg.pinv(amap @ amap.T, hermitian=True)
    for x in (touched, amap, gram_pinv):
        x.flags.writeable = False
    return _ConstraintMap(n, d, touched, amap, amap.T, gram_pinv)


def constraint_map(k: int, dA: int, dB: int) -> _ConstraintMap:
    """`_sym_map(k, dA, dB)`, cached in `_MAPS`: the solve's map and verify_extension's.

    Past `_MAP_CACHE_BYTES`, read at each eviction, the least recently used
    maps go first; the newest always stays, so a map above the bound is kept.
    """
    key = (k, dA, dB)
    cmap = _MAPS.get(key)
    if cmap is not None:
        _MAPS.move_to_end(key)
        return cmap
    cmap = _MAPS[key] = _sym_map(k, dA, dB)
    while len(_MAPS) > 1 and sum(m.nbytes for m in _MAPS.values()) > _MAP_CACHE_BYTES:
        _MAPS.popitem(last=False)
    return cmap


def _certificate(k: int, dA: int, x: np.ndarray) -> BosonicState:
    """The BosonicState of a FEASIBLE block x, assembled without a check.

    The block is the top sector's, so the certificate is already a bosonic
    extension, and `convert.sym_to_bos` returns it as it is. Its block is
    h = (x + x^H) * 0.5, the expression `linalg.hermitian_part` returns,
    halved in place and made read-only; BlockState's checks hold by what the
    solve established:
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
    h = x + x.conj().T
    h *= 0.5
    h.flags.writeable = False
    return BosonicState._assembled(k, dA, {top_sector(k): h})


def _solve(rho_ab: DensityMatrix, k: int) -> SolverReport:
    """Decide whether rho_ab is the (A, B1) marginal of a state on A tensor Sym^k(C^dB).

    The FEASIBLE block, in the basis of `_sym_map`, is PSD by construction (a
    Cholesky factorization passed, or an eigenvalue clip), with finite
    entries and a residual of at most _TOL_FEASIBLE: so its certificate need
    not check positivity, and `_certificate` checks nothing. Each public
    solve calls this and no other, so a wrapper of each sees a solve once.
    """
    k = block_k(k)
    if len(rho_ab.dims) != 2:
        raise ValueError(f"layout {rho_ab.dims} is not bipartite")
    dA, dB = rho_ab.dims
    cmap = constraint_map(k, dA, dB)
    # the marginal's entries, then the trace
    m = rho_ab.matrix.size
    b = np.empty(m + 1, dtype=complex)
    b[:m] = rho_ab.matrix.reshape(-1)
    b[m] = 1.0
    status, res, gap, it, x = _douglas_rachford(cmap, b)
    report = SolverReport(status, res, gap, it)
    if status == FEASIBLE:
        dims = (dA, cmap.n // dA)
        report.certificate = _certificate(k, dA, x) if dB == 2 else DensityMatrix(x, dims, checked=False)
    elif status == INFEASIBLE:
        # _farkas leaves the marginal part Hermitian and the trace entry real
        report.witness = Witness(x[:-1].reshape(dA * dB, dA * dB), float(x[-1].real))
    return report


def solve_symmetric(rho_ab: DensityMatrix, k: int) -> SolverReport:
    """Decide k-symmetric extendibility of rho_ab, whose B side is a qubit:
    then a k-leg permutation-invariant extension exists if and only if a
    bosonic one does, so the report is solve_bosonic's, bit for bit."""
    if len(rho_ab.dims) != 2 or rho_ab.dims[1] != 2:
        raise ValueError(f"layout {rho_ab.dims} is not (A, qubit); use solve_bosonic for other B dimensions")
    return _solve(rho_ab, k)


def solve_bosonic(rho_ab: DensityMatrix, k: int) -> SolverReport:
    """Decide k-bosonic extendibility of a bipartite rho_ab with any B dimension dB.

    For dB = 2 the certificate is a BosonicState. For dB >= 3 it is the
    state on A tensor Sym^k(C^dB), of layout (dA, C(dB + k - 1, k)), in the
    column order of `schur.sym_isometry(k, dB)`; `convert.verify_extension`
    checks it on that block, with the map of `constraint_map(k, dA, dB)`.
    dB >= 3 asks more than a symmetric extension does
    (`qutrit_counterexample`).
    """
    return _solve(rho_ab, k)


def solve_bosonic_k2_generic(rho_ab: DensityMatrix) -> SolverReport:
    """solve_bosonic(rho_ab, 2), under the name the benchmark calls."""
    return _solve(rho_ab, 2)


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
    marginal = DensityMatrix(full.marginal((0, 1)), (3, 3), checked=False)
    return marginal, full, ket

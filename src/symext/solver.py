"""Extendibility feasibility by projection splitting.

Both extension problems are intersections of a product of PSD cones (one
block per allowed sector) with an affine set pinning the (A, B1) marginal and
the normalization. The solver runs Douglas-Rachford splitting between the two
sets: both projections are exact (eigenvalue clipping per block, a
precomputed pseudo-inverse for the affine part) and the governing iterate
advances by reflections. The cone shadow is PSD by construction, so a small
constraint residual on it certifies feasibility outright. When the sets are
disjoint the step length decreases to the distance between them, so a stalled
step length above tol_infeasible_gap is reported as infeasibility with that
gap estimate. Everything else times out as UNDECIDED.

The affine set's linear map depends only on the shape of the problem, not on
the state: it is built in closed form from index arrays, keeps only the
columns of the coordinates it touches (the weight-diagonal and
weight-adjacent dA x dA sub-blocks of each sector), and is cached, read-only,
with its Gram pseudo-inverse. The key is (k, dA, sectors) for the qubit
solvers and (dA, dB) for the two-leg pair solver; only the target vector is
built per state, and the affine projection works on the touched coordinates
alone. A map takes about 8 * (4 dA^2 + 2) bytes per touched coordinate:
under 1 MB for k <= 10 and dA <= 4, 1.8 MB at k = 16, dA = 4 and 26 MB at the
block cap (k = 64, dA = 4), where the dense map would take 399 MB. The cache
evicts the least recently used maps once they hold more than 64 MB together.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Any

import numpy as np

from .blocks import BlockState
from .caps import block_cap
from .linalg import DensityMatrix
from .schur import alpha_coeff, diag_coeffs
from .young import YoungDiagram, hook_dim, list_diagrams

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"

_STALL_WINDOW = 200
_STALL_REL_CHANGE = 1e-7
_STALL_CHECK_EVERY = 25


@dataclass(frozen=True)
class SolverConfig:
    tol_feasible: float = 1e-8
    tol_infeasible_gap: float = 1e-6
    max_iter: int = 20000
    seed: int = 0  # echoed in reports; the iteration itself is deterministic

    def __post_init__(self):
        if self.tol_feasible <= 0 or self.tol_infeasible_gap <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolverReport:
    status: str
    residual: float
    gap_estimate: float
    iterations: int
    certificate: Any = None


_SQRT2 = sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

# Bound on the bytes of the cached constraint maps: room for the map at the
# block cap (k=64, dA=4, about 26 MB) next to many small ones, so that a batch
# cycling through a handful of shapes builds each map once.
_MAP_CACHE_BYTES = 64 * 2**20


@lru_cache(maxsize=256)
def _herm_index(n: int):
    """Index maps between an n x n complex matrix and its real coordinates.

    The coordinates are the diagonal, then sqrt(2) times the real and then the
    imaginary parts of the upper triangle, row by row: an isometry. `read`
    picks them from the float view of the flattened matrix; `write` puts
    coordinates `src`, multiplied by `scale`, back in place, lower triangle
    included.
    """
    iu, ju = np.triu_indices(n, 1)
    diag = np.arange(n) * (n + 1)
    up = iu * n + ju
    low = ju * n + iu
    m = len(up)
    read = np.concatenate([2 * diag, 2 * up, 2 * up + 1])
    write = np.concatenate([read, 2 * low, 2 * low + 1])
    src = np.concatenate([np.arange(n * n), np.arange(n, n * n)])
    scale = np.concatenate([np.ones(n), np.full(3 * m, _INV_SQRT2), np.full(m, -_INV_SQRT2)])
    for a in (read, write, src, scale):
        a.flags.writeable = False
    return read, write, src, scale


def _herm_to_vec(h: np.ndarray) -> np.ndarray:
    n = h.shape[0]
    v = np.ascontiguousarray(h, dtype=complex).reshape(-1).view(np.float64)[_herm_index(n)[0]]
    v[n:] *= _SQRT2
    return v


def _vec_to_herm(v: np.ndarray, n: int) -> np.ndarray:
    _, write, src, scale = _herm_index(n)
    h = np.zeros(2 * n * n)
    h[write] = v[src] * scale
    return h.view(complex).reshape(n, n)


def _triu_position(i, j, n):
    # index of the upper-triangle entry (i, j), i < j, in row-by-row order
    return i * n - i * (i + 1) // 2 + (j - i - 1)


class _BlockSpace:
    """Stacked real coordinates for a list of Hermitian block sizes."""

    def __init__(self, sizes):
        self.sizes = list(sizes)
        self.slices = []
        at = 0
        for n in self.sizes:
            self.slices.append(slice(at, at + n * n))
            at += n * n
        self.dim = at

    def to_mats(self, v: np.ndarray) -> list[np.ndarray]:
        return [_vec_to_herm(v[sl], n) for sl, n in zip(self.slices, self.sizes)]

    def cone_project(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for sl, n in zip(self.slices, self.sizes):
            h = _vec_to_herm(v[sl], n)
            w, u = np.linalg.eigh(h)
            np.maximum(w, 0.0, out=w)
            out[sl] = _herm_to_vec((u * w) @ u.conj().T)
        return out


@dataclass(frozen=True)
class _ConstraintMap:
    """The affine constraint's linear map, restricted to the coordinates it touches.

    Its rows are the real coordinates of the pinned marginal, then the weighted
    trace; `amap` holds the columns of the coordinates `cols` (ascending), and
    every other column of the full map is zero. All arrays are read-only.
    """

    space: _BlockSpace
    cols: np.ndarray
    amap: np.ndarray
    gram_pinv: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.cols.nbytes + self.amap.nbytes + self.gram_pinv.nbytes


def _compact_map(sizes, trace_weights, dim_out: int, terms) -> _ConstraintMap:
    """Real-coordinate constraint map of a linear map from blocks to a marginal.

    Each of `terms` is (block, p, q, i, j, coeff), p to coeff arrays of one
    length: entry (p, q) of that block adds coeff (real) times itself to entry
    (i, j) of the dim_out x dim_out marginal. The marginal of a Hermitian input is
    Hermitian, so only terms with i <= j are read. The last row is the trace of
    each block times its weight.
    """
    space = _BlockSpace(sizes)
    blk = np.concatenate([np.full(len(t[1]), t[0]) for t in terms])
    p, q, i, j, coeff = (np.concatenate([t[f] for t in terms]) for f in range(1, 6))
    keep = i <= j
    blk, p, q, i, j, coeff = blk[keep], p[keep], q[keep], i[keep], j[keep], coeff[keep]
    n = np.asarray(space.sizes)[blk]
    offset = np.asarray([sl.start for sl in space.slices])[blk]

    # Rows: the marginal's diagonal is read as is, its upper triangle times
    # sqrt(2), real parts first. Columns: a diagonal block entry is its own
    # coordinate; entry (p, q) off the diagonal is (re + i im) / sqrt(2) of its
    # pair's two coordinates when p < q, and the conjugate when p > q.
    on_diag = i == j
    upper = _triu_position(i, j, dim_out)
    row_re = np.where(on_diag, i, dim_out + upper)
    row_im = dim_out + dim_out * (dim_out - 1) // 2 + upper
    col_re = offset + n + _triu_position(np.minimum(p, q), np.maximum(p, q), n)
    col_im = col_re + n * (n - 1) // 2
    sign = np.where(p < q, 1.0, -1.0)
    out_scale = np.where(on_diag, 1.0, _SQRT2)
    scaled = coeff * _INV_SQRT2
    off = p != q
    im = off & ~on_diag  # the imaginary part of the marginal's diagonal is not read
    rows = [row_re[~off], row_re[off], row_im[im]]
    cols = [(offset + p)[~off], col_re[off], col_im[im]]
    vals = [(out_scale * coeff)[~off], (out_scale * scaled)[off], (_SQRT2 * (sign * scaled))[im]]
    trace_row = dim_out * dim_out
    for sl, nb, wt in zip(space.slices, space.sizes, trace_weights):
        rows.append(np.full(nb, trace_row))
        cols.append(sl.start + np.arange(nb))
        vals.append(np.full(nb, float(wt)))
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    is_touched = np.zeros(space.dim, dtype=bool)
    is_touched[cols] = True
    touched = np.flatnonzero(is_touched)
    # repeated (row, column) pairs add up; the sector maps have none
    flat = rows * len(touched) + np.searchsorted(touched, cols)
    amap = np.bincount(flat, weights=vals, minlength=(trace_row + 1) * len(touched)).reshape(trace_row + 1, -1)
    gram_pinv = np.linalg.pinv(amap @ amap.T, hermitian=True)
    for a in (touched, amap, gram_pinv):
        a.flags.writeable = False
    return _ConstraintMap(space, touched, amap, gram_pinv)


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


def _douglas_rachford(cmap: _ConstraintMap, b: np.ndarray, cfg: SolverConfig):
    """Returns (status, residual, gap_estimate, iterations, feasible_vec_or_None)."""
    space, cols, amap, gram_pinv = cmap.space, cmap.cols, cmap.amap, cmap.gram_pinv
    at = amap.T

    def affine_project(z: np.ndarray) -> np.ndarray:
        # in place; coordinates outside cols are not constrained
        z[cols] -= at @ (gram_pinv @ (amap @ z[cols] - b))
        return z

    x = affine_project(np.zeros(space.dim))
    steps: list[float] = []
    best_res = np.inf
    step = np.nan
    for it in range(1, cfg.max_iter + 1):
        y = space.cone_project(x)
        res = float(np.linalg.norm(amap @ y[cols] - b))
        best_res = min(best_res, res)
        if res <= cfg.tol_feasible:
            return FEASIBLE, res, 0.0, it, y
        nxt = x + affine_project(2.0 * y - x) - y
        step = float(np.linalg.norm(nxt - x))
        steps.append(step)
        x = nxt
        if it >= _STALL_WINDOW and it % _STALL_CHECK_EVERY == 0 and step > cfg.tol_infeasible_gap:
            ref = steps[it - _STALL_WINDOW]
            if abs(step - ref) <= _STALL_REL_CHANGE * max(step, 1e-300):
                return INFEASIBLE, res, step, it, None
    return UNDECIDED, best_res, step, cfg.max_iter, None


def _sector_map(k: int, dA: int, diagrams: tuple[YoungDiagram, ...]) -> _ConstraintMap:
    """Map of the sector blocks to their (A, B1) marginal and weighted trace.

    The marginal reads only the weight-diagonal and weight-adjacent dA x dA
    sub-blocks, with the coefficients of `blocks.raw_marginal_from_blocks`.
    """
    sizes, weights, terms = [], [], []
    for blk, lam in enumerate(diagrams):
        d = hook_dim(lam)
        nw = lam.num_weights
        ws = lam.weights()
        sizes.append(dA * nw)
        weights.append(d)
        t = np.array([[d * c for c in diag_coeffs(k, w)] for w in ws])
        a, c, iw = (g.ravel() for g in np.meshgrid(np.arange(dA), np.arange(dA), np.arange(nw), indexing="ij"))
        for s in (0, 1):
            terms.append((blk, a * nw + iw, c * nw + iw, 2 * a + s, 2 * c + s, t[iw, s]))
        if nw > 1:
            alpha = np.array([d * alpha_coeff(lam, w, w + 1) for w in ws[:-1]])
            adj = iw < nw - 1
            a, c, iw = a[adj], c[adj], iw[adj]
            terms.append((blk, a * nw + iw, c * nw + iw + 1, 2 * a, 2 * c + 1, alpha[iw]))
            terms.append((blk, a * nw + iw + 1, c * nw + iw, 2 * a + 1, 2 * c, alpha[iw]))
    return _compact_map(sizes, weights, 2 * dA, terms)


def _marginal_target(rho_ab: DensityMatrix) -> np.ndarray:
    return np.concatenate([_herm_to_vec(rho_ab.matrix), [1.0]])


def _solve_sectors(rho_ab: DensityMatrix, k: int, diagrams: list[YoungDiagram], cfg: SolverConfig) -> SolverReport:
    if len(rho_ab.dims) != 2 or rho_ab.dims[1] != 2:
        raise ValueError(f"layout {rho_ab.dims} is not (A, qubit); use the generic pair solver for other B dimensions")
    if not 1 <= k <= block_cap():
        raise ValueError(f"k={k} outside 1..{block_cap()} (set SYMEXT_MAX_K to change the cap)")
    dA = rho_ab.dims[0]
    diagrams = tuple(diagrams)
    cmap = _MAPS.get(("sectors", k, dA, diagrams), lambda: _sector_map(k, dA, diagrams))
    status, res, gap, it, y = _douglas_rachford(cmap, _marginal_target(rho_ab), cfg)
    certificate = None
    if status == FEASIBLE:
        mats = cmap.space.to_mats(y)
        certificate = BlockState(k, dA, dict(zip(diagrams, mats)), atol=max(1e-6, 10 * cfg.tol_feasible))
    return SolverReport(status, res, gap, it, certificate)


def solve_symmetric(rho_ab: DensityMatrix, k: int, cfg: SolverConfig | None = None) -> SolverReport:
    """Decide whether rho_ab has a k-leg permutation-invariant extension."""
    cfg = cfg or SolverConfig()
    return _solve_sectors(rho_ab, k, list_diagrams(k), cfg)


def solve_bosonic(rho_ab: DensityMatrix, k: int, cfg: SolverConfig | None = None) -> SolverReport:
    """Decide extendibility with the extension confined to the top sector."""
    cfg = cfg or SolverConfig()
    return _solve_sectors(rho_ab, k, list_diagrams(k)[:1], cfg)


def sym2_isometry(dB: int) -> np.ndarray:
    """Isometry from the symmetric pair subspace into two B systems."""
    cols = []
    for i in range(dB):
        for jq in range(i, dB):
            v = np.zeros(dB * dB)
            if i == jq:
                v[i * dB + i] = 1.0
            else:
                v[i * dB + jq] = v[jq * dB + i] = 1 / sqrt(2.0)
            cols.append(v)
    return np.stack(cols, axis=1)


def _pair_map(dA: int, dB: int) -> _ConstraintMap:
    """Map of a state on A tensor Sym^2(C^dB) to the (A, B1) marginal of its
    embedding in A tensor B tensor B, and its trace."""
    nsym = dB * (dB + 1) // 2
    v = sym2_isometry(dB).reshape(dB, dB, nsym)
    # tracing out B2: entry (s, t) of the pair block feeds (b1, b1') with pair[b1, b1', s, t]
    pair = np.einsum("xbs,ybt->xyst", v, v)
    b1, b1p, s, t = np.nonzero(pair)
    a, ap = (x[:, None] for x in np.divmod(np.arange(dA * dA), dA))
    p, q, i, j, coeff = np.broadcast_arrays(
        a * nsym + s, ap * nsym + t, a * dB + b1, ap * dB + b1p, pair[b1, b1p, s, t]
    )
    return _compact_map([dA * nsym], [1], dA * dB, [(0, p.ravel(), q.ravel(), i.ravel(), j.ravel(), coeff.ravel())])


def solve_bosonic_k2_generic(rho_ab: DensityMatrix, dB: int, cfg: SolverConfig | None = None) -> SolverReport:
    """Two-leg bosonic extendibility for any B dimension.

    The variable lives on A tensor the symmetric pair subspace; the affine set
    pins the (A, B1) marginal of its embedding. The certificate is the state
    on that subspace.
    """
    cfg = cfg or SolverConfig()
    if len(rho_ab.dims) != 2 or rho_ab.dims[1] != dB:
        raise ValueError(f"layout {rho_ab.dims} does not match a B dimension of {dB}")
    dA = rho_ab.dims[0]
    nsym = dB * (dB + 1) // 2
    cmap = _MAPS.get(("pair", dA, dB), lambda: _pair_map(dA, dB))
    status, res, gap, it, y = _douglas_rachford(cmap, _marginal_target(rho_ab), cfg)
    certificate = None
    if status == FEASIBLE:
        certificate = DensityMatrix(cmap.space.to_mats(y)[0], (dA, nsym), atol=max(1e-6, 10 * cfg.tol_feasible), check_psd=False)
    return SolverReport(status, res, gap, it, certificate)


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

"""Bosonic conversion of block states, extension verification, and the
partial-transpose screen.

The conversion rescales each block entrywise by the unit-diagonal PSD matrix
P of its sector, times the sector's tableau count (the `scale` of
`schur.sector_tables`), and sums the results into the top sector, whose
weight slots span the symmetric subspace. The Schur product keeps every
block PSD, the unit diagonal keeps the weighted trace, and the
adjacent-weight entries of the rescaling matrix are exactly the ratio of
marginal coefficients, so the (A, B1) marginal is unchanged. The sum is
checked as every BosonicState is; a BosonicState, the qubit solver's
certificate among them, is already the result and is returned as it is.

Certificates, BlockStates and the BosonicStates among them, are verified in
sector coordinates at every k. Gluing the blocks through the orthonormal
sector basis gives a full state that is permutation invariant whatever the
blocks hold, whose nonzero spectrum is that of the blocks, whose k
marginals are all equal, and whose weight outside the symmetric subspace is
the weighted trace of the non-top sectors. So positivity, trace, marginal
and that weight are measured on the blocks, and invariance holds by
construction. So is a plain state on A tensor Sym^k(C^dB), the dB >= 3
certificate of `solver.solve_bosonic`: its embedding into A tensor B^k is
an isometry onto the symmetric subspace, so it adds only zero eigenvalues,
and the embedded state is invariant, bosonic and has k equal marginals
whatever the block holds. A full-space DensityMatrix is checked in the full
space: positivity, trace, every (A, B_i) marginal, invariance under each
adjacent transposition of the legs (by permuting the axes of the reshaped
matrix, so each costs O((dA*d^k)^2)), and the weight outside the symmetric
subspace.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .blocks import BlockState, BosonicState, raw_marginal_from_blocks
from .caps import block_k, integer_size
from .linalg import DensityMatrix, eigvalsh, partial_transpose
from .schur import sector_tables, sym_isometry
from .solver import constraint_map
from .young import hook_dim


def _bosonic_sum(bs: BlockState) -> np.ndarray:
    """The matrix of sym_to_bos(bs), unchecked."""
    k, dA = bs.k, bs.dA
    out = np.zeros((dA, k + 1, dA, k + 1), dtype=complex)
    for lam, x in bs.blocks.items():
        nw = lam.num_weights
        *_, scale = sector_tables(lam)
        xr = x.reshape(dA, nw, dA, nw)
        lo = lam.lambda2  # weight -j sits at slot lambda2
        out[:, lo : lo + nw, :, lo : lo + nw] += xr * scale[None, :, None, :]
    return out.reshape(dA * (k + 1), dA * (k + 1))


def sym_to_bos(bs: BlockState) -> BosonicState:
    """Convert a block state into a bosonic extension with the same marginal.

    A BosonicState is returned as it is: it is read-only, and its
    constructor or the solve that made it has checked it. Any other block
    state, a top-only one included, is summed, and the sum goes through the
    BosonicState constructor's checks.
    """
    if isinstance(bs, BosonicState):
        return bs
    return BosonicState(bs.dA, bs.k, _bosonic_sum(bs))


@dataclass(frozen=True)
class ExtensionReport:
    """Deviations measured by verify_extension, all compared against one tol.

    nonsymmetric_overlap is the weight outside the symmetric subspace; it is
    only required to vanish for a bosonic extension. by_construction is True
    when a certificate was checked in sector coordinates or on a block of
    A tensor Sym^k(C^dB): then permutation invariance holds by construction
    and invariance_deviation reads 0.0 without a measurement. In sector
    coordinates nonsymmetric_overlap is still measured, as the weighted
    trace of the non-top sectors (exactly 0.0 for a BosonicState); on a
    block of A tensor Sym^k(C^dB) it is 0.0 by construction.
    """

    tol: float
    min_eigenvalue: float
    trace_deviation: float
    marginal_deviation: float
    invariance_deviation: float
    nonsymmetric_overlap: float
    by_construction: bool = False

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= -self.tol

    @property
    def trace_ok(self) -> bool:
        return self.trace_deviation <= self.tol

    @property
    def marginal_ok(self) -> bool:
        return self.marginal_deviation <= self.tol

    @property
    def invariance_ok(self) -> bool:
        return self.invariance_deviation <= self.tol

    @property
    def support_ok(self) -> bool:
        return self.nonsymmetric_overlap <= self.tol

    @property
    def symmetric_ok(self) -> bool:
        return self.psd_ok and self.trace_ok and self.marginal_ok and self.invariance_ok

    @property
    def bosonic_ok(self) -> bool:
        return self.symmetric_ok and self.support_ok


def _swap_adjacent_legs(matrix: np.ndarray, dims: tuple[int, ...], t: int) -> np.ndarray:
    """matrix conjugated by the swap of legs t and t+1 (subsystems t+1, t+2)."""
    n = len(dims)
    axes = list(range(2 * n))
    for a in (1 + t, n + 1 + t):
        axes[a], axes[a + 1] = axes[a + 1], axes[a]
    return matrix.reshape(dims + dims).transpose(axes).reshape(matrix.shape)


def _sym_layout(rho_ab: DensityMatrix, k: int) -> tuple[int, int]:
    """(dA, C(dB + k - 1, k)), the layout of a state on A tensor Sym^k(C^dB)."""
    return rho_ab.dims[0], comb(rho_ab.dims[1] + k - 1, k)


def is_bosonic_layout(sigma, rho_ab: DensityMatrix, k: int) -> bool:
    """Whether verify_extension checks sigma as a state on A tensor
    Sym^k(C^dB), for a bipartite rho_ab of layout (dA, dB): a BosonicState,
    or at k >= 2 a DensityMatrix of layout `_sym_layout(rho_ab, k)`."""
    plain = isinstance(sigma, DensityMatrix) and k > 1 and len(rho_ab.dims) == 2
    return isinstance(sigma, BosonicState) or (plain and sigma.dims == _sym_layout(rho_ab, k))


def _verify_full(sigma: DensityMatrix, rho_ab: DensityMatrix, k: int, tol: float) -> ExtensionReport:
    dims = sigma.dims
    if len(dims) != k + 1:
        expected = f"{k} extension legs"
        if len(dims) == 2 and len(rho_ab.dims) == 2:
            expected += f" or the layout {_sym_layout(rho_ab, k)} of A tensor Sym^{k}(C^{rho_ab.dims[1]})"
        raise ValueError(f"layout {dims} does not have {expected}")
    d = dims[1]
    if any(x != d for x in dims[1:]):
        raise ValueError(f"extension legs in {dims} are not all equal")
    if rho_ab.dims != (dims[0], d):
        raise ValueError(f"marginal layout {rho_ab.dims} does not match extension {dims}")
    low = float(eigvalsh(sigma.matrix)[0])
    trace_dev = abs(float(sigma.matrix.trace().real) - 1.0)
    marg_dev = max(
        float(np.linalg.norm(sigma.marginal((0, i)) - rho_ab.matrix)) for i in range(1, k + 1)
    )
    inv_dev = 0.0
    for t in range(k - 1):
        swapped = _swap_adjacent_legs(sigma.matrix, dims, t)
        inv_dev = max(inv_dev, float(np.linalg.norm(swapped - sigma.matrix)))
    lift = np.kron(np.eye(dims[0]), sym_isometry(k, d))
    overlap = float(sigma.matrix.trace().real - np.trace(lift.conj().T @ sigma.matrix @ lift).real)
    return ExtensionReport(tol, low, trace_dev, marg_dev, inv_dev, max(overlap, 0.0))


def _verify_sectors(sigma: BlockState, rho_ab: DensityMatrix, k: int, tol: float) -> ExtensionReport:
    """Check a BlockState, a BosonicState among them, on its blocks."""
    if sigma.k != k:
        raise ValueError(f"extension has k={sigma.k}, expected {k}")
    if rho_ab.dims != (sigma.dA, 2):
        raise ValueError(f"marginal layout {rho_ab.dims} does not match extension")
    items = sigma.blocks.items()
    low = min((float(eigvalsh(x)[0]) for _, x in items), default=0.0)
    trace_dev = abs(sigma.weighted_trace - 1.0)
    marg = raw_marginal_from_blocks(sigma.dA, items)
    marg_dev = float(np.linalg.norm(marg - rho_ab.matrix))
    outside = sum(hook_dim(lam) * float(x.trace().real) for lam, x in items if lam.lambda2)
    return ExtensionReport(tol, low, trace_dev, marg_dev, 0.0, max(outside, 0.0), by_construction=True)


def _verify_sym(sigma: DensityMatrix, rho_ab: DensityMatrix, k: int, tol: float) -> ExtensionReport:
    """Check a state on A tensor Sym^k(C^dB) on its block: one product of the
    real constraint map with the (rows, 2) float pairs of the touched entries
    gives the marginal's entries and, in its last row, the trace."""
    dA, dB = rho_ab.dims
    cmap = constraint_map(k, dA, dB)
    x = sigma.matrix
    low = float(eigvalsh(x)[0])
    touched = x.reshape(-1)[cmap.cols]
    image = (cmap.amap @ touched.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()
    trace_dev = abs(float(image[-1].real) - 1.0)
    marg_dev = float(np.linalg.norm(image[:-1].reshape(dA * dB, dA * dB) - rho_ab.matrix))
    return ExtensionReport(tol, low, trace_dev, marg_dev, 0.0, 0.0, by_construction=True)


def verify_extension(sigma, rho_ab: DensityMatrix, k: int, tol: float = 1e-8) -> ExtensionReport:
    """Check an extension candidate against its claimed pair marginal.

    A BlockState certificate, a BosonicState among them, is checked in sector
    coordinates; a full-space DensityMatrix is checked in the full space. For
    k >= 2 a DensityMatrix of layout (dA, C(dB + k - 1, k)), with (dA, dB) the
    marginal's, is a state on A tensor Sym^k(C^dB) in `sym_isometry(k, dB)`
    column order, as `solver.solve_bosonic` makes it (`is_bosonic_layout`),
    and is checked on its block with the solver's `constraint_map(k, dA, dB)`,
    whose charge bounds it as it bounds the solve. k must be in 1..64
    (`caps.block_k`), and tol finite and not negative: an infinite tol would
    pass any candidate, and a NaN would fail every check.
    """
    k = block_k(k)
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and not negative, got {float(tol)!r}")
    if isinstance(sigma, BlockState):
        return _verify_sectors(sigma, rho_ab, k, tol)
    if is_bosonic_layout(sigma, rho_ab, k):
        return _verify_sym(sigma, rho_ab, k, tol)
    if isinstance(sigma, DensityMatrix):
        return _verify_full(sigma, rho_ab, k, tol)
    raise TypeError(f"cannot verify extension of type {type(sigma).__name__}")


@dataclass(frozen=True)
class TildeReport:
    state: DensityMatrix
    ppt: bool
    pt_min_eigenvalue: float


def tilde_state(rho_ab: DensityMatrix, k: int) -> TildeReport:
    """Mixture of rho_ab with its A marginal that is extendible-sensitive.

    If rho_ab has a k-leg symmetric extension the returned state is separable,
    so a negative partial transpose here rules the extension out cheaply.
    """
    if len(rho_ab.dims) != 2:
        raise ValueError(f"layout {rho_ab.dims} is not bipartite")
    k = integer_size("k", k)
    if k < 1:
        raise ValueError("k must be at least 1")
    dA, dB = rho_ab.dims
    # the mixing weights below are floats
    if k + dB * dB > sys.float_info.max:
        raise ValueError("k does not fit in a float")
    rho_a = rho_ab.marginal((0,))
    mix = np.kron(rho_a, np.eye(dB))
    if dB == 2:
        # qubit B side: the bosonic and symmetric hierarchies coincide, so the
        # stronger mixing ratio applies
        matrix = (mix + k * rho_ab.matrix) / (k + 2)
    else:
        matrix = (dB * mix + k * rho_ab.matrix) / (dB * dB + k)
    state = DensityMatrix(matrix, (dA, dB), checked=False)
    # the partial transpose of the Hermitian state.matrix is Hermitian
    low = float(eigvalsh(partial_transpose(state.matrix, (dA, dB)))[0])
    return TildeReport(state, low >= -1e-10, low)

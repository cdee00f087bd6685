"""Permutation-invariant global states in per-sector block coordinates.

A state of A plus k exchangeable qubits that commutes with every qubit
permutation is determined by one PSD block per two-row sector. The block for
sector lam acts on A tensor the weight space of lam (A index major, weight
minor); the global state is recovered by gluing each block to the path-summed
weight transfer operators of the sector. The planted blocks of
`gen_random_extendible` and the states glued from a block state are built
from checked parts, so they skip trace and positivity (checked=False).
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .caps import block_k, check_dense_bytes, integer_size
from .linalg import DensityMatrix, eigenvalue_below, hermitian_part
from .schur import build_schur_basis, sector_tables
from .young import YoungDiagram, hook_dim, list_diagrams, top_sector

PROFILE_ALL = "all"
PROFILE_EXCLUDE_BOSONIC = "exclude-bosonic"
PROFILES = (PROFILE_ALL, PROFILE_EXCLUDE_BOSONIC)

# the tolerance of every BlockState check: Hermitian deviation, positivity and trace
_ATOL = 1e-6


class BlockState:
    """One Hermitian PSD block per sector; missing sectors are zero.

    The weighted normalization sum_lam tableau_count(lam) * tr(X_lam) = 1
    makes the glued global state unit trace. The checks follow the rule of
    `linalg`, per block and at 1e-6: every block is finite and Hermitian,
    and checked=False skips weighted trace and positivity. k and dA must be
    integers (Python or numpy, not bools), k in 1..64 (`caps.block_k`).

    `_assembled` builds a state that checks nothing, not even finiteness or
    the Hermitian deviation; its one caller is `solver._certificate`, whose
    block the solve has already checked.
    """

    def __init__(self, k: int, dA: int, blocks, *, checked: bool = True):
        self.k = block_k(k)
        self.dA = integer_size("dA", dA)
        if self.dA < 1:
            raise ValueError(f"invalid A dimension {dA}")
        clean: dict[YoungDiagram, np.ndarray] = {}
        for lam, x in blocks.items():
            if not (isinstance(lam, YoungDiagram) and lam.k == self.k):
                raise ValueError(f"{lam} is not a sector of {self.k} qubits")
            x = np.asarray(x, dtype=complex)
            n = self.dA * lam.num_weights
            if x.shape != (n, n):
                raise ValueError(f"block for {lam} has shape {x.shape}, expected {(n, n)}")
            try:
                x = hermitian_part(x, _ATOL, "entries must be finite", "not Hermitian (deviation {dev:.3e})")
            except ValueError as exc:
                raise ValueError(f"block for {lam} {exc}") from None
            if checked:
                low = eigenvalue_below(x, _ATOL)
                if low is not None:
                    raise ValueError(f"block for {lam} has eigenvalue {low:.3e}")
            x.flags.writeable = False
            clean[lam] = x
        self.blocks = clean
        if checked and abs((total := self.weighted_trace) - 1.0) > _ATOL:
            raise ValueError(f"weighted block trace {total!r} is not 1 within {_ATOL:g}")

    @classmethod
    def _assembled(cls, k: int, dA: int, blocks: dict) -> "BlockState":
        """The state of blocks, built without any check of __init__; the
        caller answers for every one of them (see `solver._certificate`)."""
        state = cls.__new__(cls)
        state.k, state.dA, state.blocks = k, dA, blocks
        return state

    @property
    def weighted_trace(self) -> float:
        return sum(hook_dim(lam) * float(x.trace().real) for lam, x in self.blocks.items())

    def __repr__(self):
        sectors = ",".join(f"[{l.lambda1},{l.lambda2}]" for l in sorted(self.blocks, key=lambda d: -d.lambda1))
        return f"{type(self).__name__}(k={self.k}, dA={self.dA}, sectors={sectors})"


class BosonicState(BlockState):
    """Extension supported on the symmetric subspace: the block state whose
    one sector is the top one, [k, 0].

    The matrix is that block, on A tensor the k+1 weight slots (A index
    major, weight ascending), checked as every BlockState is.
    """

    def __init__(self, dA: int, k: int, matrix, *, checked: bool = True):
        # the top sector is built before BlockState checks k
        k = block_k(k)
        super().__init__(k, dA, {top_sector(k): matrix}, checked=checked)

    @property
    def matrix(self) -> np.ndarray:
        return self.blocks[top_sector(self.k)]


def blocks_to_global(bs: BlockState, basis: MappingProxyType) -> DensityMatrix:
    """Glue the blocks through `schur.build_schur_basis(k)` into the full state, if `caps` allows its bytes."""
    k = next(iter(basis)).k
    if k != bs.k:
        raise ValueError(f"basis is for k={k}, blocks for k={bs.k}")
    n = 2**bs.k
    dA = bs.dA
    # the peak holds about three arrays of the output's size, the glued sum
    # (which DensityMatrix takes without a copy), x^H, and x - x^H or the
    # Hermitian part (`linalg.hermitian_part`), and is charged four
    check_dense_bytes(f"the glued state of dA={dA}, k={bs.k}", 4 * 16 * (dA * n) ** 2)
    out = np.zeros((dA, n, dA, n), dtype=complex)
    for lam, x in bs.blocks.items():
        sec = basis[lam]
        nw = lam.num_weights
        # out[a, x, b, y] += sum over paths mu and weights w, v of
        # sec[x, mu, w] X[a w, b v] sec[y, mu, v]
        out += np.einsum("xmw,awbv,ymv->axby", sec, x.reshape(dA, nw, dA, nw), sec, optimize=True)
    matrix = out.reshape(dA * n, dA * n)
    return DensityMatrix(matrix, (dA,) + (2,) * bs.k, checked=False)


def global_to_blocks(rho: DensityMatrix) -> BlockState:
    """Blocks of the permutation average of rho, a state of A and k >= 1 qubits.

    k is read off the layout (dA, 2, ..., 2), and the sectors come from the
    cached `schur.build_schur_basis(k)`. In the coupled basis the average
    keeps only terms diagonal in sector and path, so it reduces to zeroing
    cross blocks and averaging over paths. For an already invariant rho this
    is exact extraction.
    """
    dA, *legs = rho.dims
    k = len(legs)
    if not legs or any(d != 2 for d in legs):
        raise ValueError(f"layout {rho.dims} is not A and one or more qubits")
    n = 2**k
    r = rho.matrix.reshape(dA, n, dA, n)
    blocks = {}
    for lam, sec in build_schur_basis(k).items():
        d = sec.shape[1]
        nw = lam.num_weights
        m = np.einsum("xmw,axby,ymv->awbv", sec, r, sec, optimize=True) / d
        blocks[lam] = m.reshape(dA * nw, dA * nw)
    return BlockState(k, dA, blocks)


def raw_marginal_from_blocks(dA: int, items) -> np.ndarray:
    """(A, B1) marginal matrix for raw (sector, block) pairs, no validation."""
    out = np.zeros((dA, 2, dA, 2), dtype=complex)
    for lam, x in items:
        c0, c1, ca, _ = sector_tables(lam)
        nw = lam.num_weights
        xr = np.asarray(x).reshape(dA, nw, dA, nw)
        for iw in range(nw):
            diag = xr[:, iw, :, iw]
            out[:, 0, :, 0] += c0[iw] * diag
            out[:, 1, :, 1] += c1[iw] * diag
            if iw + 1 < nw:
                cross = xr[:, iw, :, iw + 1]
                out[:, 0, :, 1] += ca[iw] * cross
                out[:, 1, :, 0] += ca[iw] * cross.conj().T
    return out.reshape(2 * dA, 2 * dA)


def marginal_from_blocks(bs: BlockState) -> DensityMatrix:
    """(A, B1) marginal of the glued state, from the weight coefficient tables."""
    matrix = raw_marginal_from_blocks(bs.dA, bs.blocks.items())
    return DensityMatrix(matrix, (bs.dA, 2), checked=False)


def gen_random_extendible(k: int, dA: int, seed: int, profile: str = PROFILE_ALL) -> tuple[DensityMatrix, BlockState]:
    """Random marginal with a planted extension witness.

    profile "all" draws a Ginibre PSD block for every sector;
    "exclude-bosonic" leaves the top sector empty, so the witness is genuinely
    non-bosonic before conversion.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    # before any block is drawn: the blocks of a large k alone can exhaust memory
    k, dA, seed = block_k(k), integer_size("dA", dA), integer_size("seed", seed)
    if not 1 <= dA <= 4:
        raise ValueError(f"A dimension {dA} outside 1..4")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    diagrams = list_diagrams(k)
    if profile == PROFILE_EXCLUDE_BOSONIC:
        diagrams = diagrams[1:]
        if not diagrams:
            raise ValueError("profile exclude-bosonic needs k >= 2")
    rng = np.random.default_rng(seed)
    blocks = {}
    total = 0.0
    for lam in diagrams:
        n = dA * lam.num_weights
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = g @ g.conj().T
        blocks[lam] = x
        total += hook_dim(lam) * float(x.trace().real)
    blocks = {lam: x / total for lam, x in blocks.items()}
    # every block is a Ginibre product g g^H, PSD by construction, of weighted trace 1
    bs = BlockState(k, dA, blocks, checked=False)
    return marginal_from_blocks(bs), bs

"""The sector-coordinate verifier against the full-space reference.

Certificates (BlockState, BosonicState among them) are verified on their
blocks, and so are plain states on A tensor Sym^k(C^dB); the reference
glues the blocks into the full space, or lifts the state through
`sym_isometry`, and runs the full-space check, which measures invariance
and support instead of taking them as given. Both must raise the same
flags, on valid certificates and on copies with a negative eigenvalue, the
wrong marginal, or a trace of 1.01.
"""

from math import comb

import numpy as np
import pytest

from conftest import random_density
from symext.blocks import PROFILES, BlockState, blocks_to_global, gen_random_extendible
from symext.convert import BosonicState, _verify_full, sym_to_bos, verify_extension
from symext.linalg import DensityMatrix
from symext.schur import build_schur_basis, sym_isometry

FLAGS = ("psd_ok", "trace_ok", "marginal_ok", "invariance_ok", "support_ok", "symmetric_ok", "bosonic_ok")


def _with_negative_eigenvalue(x):
    # move the smallest eigenvalue to -1e-7 and its weight onto the largest
    # one: the trace stays, the spectrum leaves the PSD cone
    w, v = np.linalg.eigh(x)
    lo, hi = v[:, :1], v[:, -1:]
    shift = w[0] + 1e-7
    return x - shift * lo @ lo.conj().T + shift * hi @ hi.conj().T


def _full(ext):
    """Full-space state of a certificate, glued through the Schur basis."""
    return blocks_to_global(ext, build_schur_basis(ext.k))


def _scaled(full, scale):
    # the glue is linear, so the full state of a certificate
    # scaled by 1.01 is the scaled full state; the DensityMatrix checks of
    # gluing would refuse its trace
    return DensityMatrix(scale * full.matrix, full.dims, checked=False)


@pytest.mark.parametrize("k", range(2, 9))
def test_sector_check_matches_the_full_space_check(k):
    for dA in (1, 2, 3):
        for i, profile in enumerate(PROFILES):
            seed = 100 * k + 10 * dA + i
            rho, witness = gen_random_extendible(k, dA, seed, profile)
            other, _ = gen_random_extendible(k, dA, seed + 5)
            bos = sym_to_bos(witness)
            lam = max(witness.blocks, key=lambda d: d.lambda1)
            negative = BlockState(k, dA, {**witness.blocks, lam: _with_negative_eigenvalue(witness.blocks[lam])})
            negative_bos = BosonicState(dA, k, _with_negative_eigenvalue(bos.matrix))
            # a trace of 1.01 is outside every constructor's tolerance
            high = BlockState._assembled(k, dA, {m: 1.01 * x for m, x in witness.blocks.items()})
            high_bos = BosonicState._assembled(k, dA, {m: 1.01 * x for m, x in bos.blocks.items()})
            full, full_bos = _full(witness), _full(bos)
            cases = [
                (witness, rho, full),
                (bos, rho, full_bos),
                (witness, other, full),
                (bos, other, full_bos),
                (high, rho, _scaled(full, 1.01)),
                (high_bos, rho, _scaled(full_bos, 1.01)),
                (negative, rho, _full(negative)),
                (negative_bos, rho, _full(negative_bos)),
            ]
            for ext, marginal, full in cases:
                got = verify_extension(ext, marginal, k)
                want = _verify_full(full, marginal, k, 1e-8)
                assert got.by_construction and not want.by_construction
                assert [getattr(got, f) for f in FLAGS] == [getattr(want, f) for f in FLAGS], (dA, profile, ext)
                assert abs(got.trace_deviation - want.trace_deviation) <= 1e-12
                assert abs(got.marginal_deviation - want.marginal_deviation) <= 1e-12
                assert abs(min(got.min_eigenvalue, 0.0) - min(want.min_eigenvalue, 0.0)) <= 1e-12
            # the grid reaches every outcome the corruptions aim at (a 1x1
            # block has no second eigenvalue to take the weight)
            assert verify_extension(negative, rho, k).psd_ok == (witness.blocks[lam].shape[0] == 1)
            assert not verify_extension(negative_bos, rho, k).psd_ok
            assert not verify_extension(bos, other, k).marginal_ok
            assert not verify_extension(high_bos, rho, k).trace_ok


@pytest.mark.parametrize("dB", [2, 3, 4])
def test_sym_block_check_matches_the_full_space_check(dB):
    gen = np.random.default_rng(dB)
    for k in (2, 3, 4):
        for dA in (1, 2):
            n = dA * comb(dB + k - 1, k)
            dims = (dA,) + (dB,) * k
            lift = np.kron(np.eye(dA), sym_isometry(k, dB))

            def lifted(x):
                return DensityMatrix(lift @ x @ lift.T, dims, checked=False)

            x, y = random_density(n, gen), random_density(n, gen)
            rho, other = (DensityMatrix(lifted(z).marginal((0, 1)), (dA, dB)) for z in (x, y))
            reports = []
            for block, marginal in ((x, rho), (x, other), (1.01 * x, rho), (_with_negative_eigenvalue(x), rho)):
                got = verify_extension(DensityMatrix(block, (dA, n // dA), checked=False), marginal, k)
                reports.append(got)
                want = _verify_full(lifted(block), marginal, k, 1e-8)
                assert got.by_construction and not want.by_construction
                assert [getattr(got, f) for f in FLAGS] == [getattr(want, f) for f in FLAGS], (k, dA, dB)
                assert abs(got.trace_deviation - want.trace_deviation) <= 1e-12
                assert abs(got.marginal_deviation - want.marginal_deviation) <= 1e-12
                # the lift adds only zero eigenvalues
                assert abs(min(got.min_eigenvalue, 0.0) - min(want.min_eigenvalue, 0.0)) <= 1e-12
            # the grid reaches every outcome the corruptions aim at
            _, wrong, high, negative = reports
            assert not wrong.marginal_ok and not high.trace_ok and not negative.psd_ok

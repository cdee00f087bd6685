import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_group_average, naive_partial_trace, random_density
from symext.blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    BlockState,
    blocks_to_global,
    gen_random_extendible,
    global_to_blocks,
    marginal_from_blocks,
)
from symext import caps
from symext.convert import BosonicState, sym_to_bos
from symext.linalg import DensityMatrix, eigenvalue_below
from symext.schur import build_schur_basis, sym_isometry
from symext.young import YoungDiagram, hook_dim, list_diagrams


def random_block_state(k, dA, seed, diagrams=None):
    gen = np.random.default_rng(seed)
    diagrams = list_diagrams(k) if diagrams is None else diagrams
    blocks = {}
    total = 0.0
    for lam in diagrams:
        n = dA * lam.num_weights
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        blocks[lam] = g @ g.conj().T
        total += hook_dim(lam) * blocks[lam].trace().real
    return BlockState(k, dA, {lam: x / total for lam, x in blocks.items()})


def test_block_state_validation():
    lam = YoungDiagram(2, 0)
    x = np.eye(3) / 3
    bs = BlockState(2, 1, {lam: x})
    assert bs.k == 2 and bs.dA == 1
    assert abs(bs.weighted_trace - 1.0) < 1e-12
    # a sector without a block is absent
    assert YoungDiagram(1, 1) not in bs.blocks
    with pytest.raises(ValueError, match="not a sector"):
        BlockState(3, 1, {lam: np.eye(3) / 3})
    # a sector is a YoungDiagram; its row lengths as a tuple are not one
    with pytest.raises(ValueError, match=r"^\(2, 0\) is not a sector of 2 qubits$"):
        BlockState(2, 1, {(2, 0): x})
    with pytest.raises(ValueError, match="shape"):
        BlockState(2, 1, {lam: np.eye(2) / 2})
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.eye(3, dtype=complex) / 3
        bad[0, 1] = 1.0
        BlockState(2, 1, {lam: bad})
    with pytest.raises(ValueError, match=r"^block for \[2,0\] has eigenvalue -1\.000e\+00$"):
        BlockState(2, 1, {lam: np.diag([1.0, 1.0, -1.0])})
    # the positivity tolerance is atol: just inside is accepted, just outside is not
    BlockState(2, 1, {lam: np.diag([0.5 + 0.999e-6, 0.5, -0.999e-6])})
    with pytest.raises(ValueError, match=r"^block for \[2,0\] has eigenvalue -1\.001e-06$"):
        BlockState(2, 1, {lam: np.diag([0.5 + 1.001e-6, 0.5, -1.001e-6])})
    # a lone non-finite entry; inf at (i, j) and at (j, i), whose difference
    # is NaN; and NaN on the diagonal
    for entries in ({(2, 1): np.nan}, {(2, 1): np.inf}, {(2, 1): complex(0, np.nan)},
                    {(0, 2): np.inf, (2, 0): np.inf}, {(1, 1): np.nan}):
        bad = np.eye(3, dtype=complex) / 3
        for ij, v in entries.items():
            bad[ij] = v
        with pytest.raises(ValueError, match=r"^block for \[2,0\] entries must be finite$"):
            BlockState(2, 1, {lam: bad})
    with pytest.raises(ValueError, match="trace"):
        BlockState(2, 1, {lam: np.eye(3)})
    with pytest.raises(ValueError, match="outside"):
        BlockState(0, 1, {})
    with pytest.raises(ValueError, match="dimension"):
        BlockState(2, 0, {lam: x})
    # bools and floats are not integers here, though int() takes them
    for k, dA, field in ((True, 1, "k"), (2, True, "dA"), (np.True_, 1, "k"), (3.9, 2.0, "k"), (2, 1.0, "dA"),
                         ("2", 1, "k")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            BlockState(k, dA, {lam: x})
    # numpy integers are integers; the sizes are kept as Python ints
    bs = BlockState(np.int64(2), np.int32(1), {lam: x})
    assert (bs.k, bs.dA) == (2, 1) and type(bs.k) is int and type(bs.dA) is int


def test_singlet_sector_glues_to_singlet(basis2):
    # lone [1,1] block |xi><xi| on A glues to |xi><xi| tensor the singlet
    xi = np.array([0.6, 0.8j])
    bs = BlockState(2, 2, {YoungDiagram(1, 1): np.outer(xi, xi.conj())})
    rho = blocks_to_global(bs, basis2)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    want = np.kron(np.outer(xi, xi.conj()), np.outer(psi, psi))
    assert np.allclose(rho.matrix, want, atol=1e-14)


def test_top_sector_supported_on_symmetric_subspace():
    for k in (2, 3, 5):
        basis = build_schur_basis(k)
        bs = random_block_state(k, 2, seed=k, diagrams=[YoungDiagram(k, 0)])
        rho = blocks_to_global(bs, basis)
        v = sym_isometry(k, 2)
        proj = np.kron(np.eye(2), v @ v.T)
        assert np.allclose(proj @ rho.matrix @ proj, rho.matrix, atol=1e-12)


def test_highest_weight_block_glues_to_all_ones():
    # top sector, top weight slot only: the B side is |1...1>
    k, dA = 3, 2
    gen = np.random.default_rng(7)
    rho_a = random_density(dA, gen)
    x = np.zeros((dA * (k + 1), dA * (k + 1)), dtype=complex)
    xr = x.reshape(dA, k + 1, dA, k + 1)
    xr[:, k, :, k] = rho_a
    bs = BlockState(k, dA, {YoungDiagram(k, 0): x})
    rho = blocks_to_global(bs, build_schur_basis(k))
    want = np.zeros((dA * 8, dA * 8), dtype=complex)
    wr = want.reshape(dA, 8, dA, 8)
    wr[:, 7, :, 7] = rho_a
    assert np.allclose(rho.matrix, want, atol=1e-14)


def test_mixed_sector_diagonal_marginal(basis3):
    # k=3 sector [2,1] filled only at weight -1/2: B marginal is diag(2/3, 1/3)
    lam = YoungDiagram(2, 1)
    x = np.diag([0.5, 0.0])
    bs = BlockState(3, 1, {lam: x})
    marg = marginal_from_blocks(bs).matrix
    assert np.allclose(marg, np.diag([2 / 3, 1 / 3]), atol=1e-14)
    rho = blocks_to_global(bs, basis3)
    brute = naive_partial_trace(rho.matrix, (1, 2, 2, 2), (0, 1))
    assert np.allclose(marg, brute, atol=1e-13)


@pytest.mark.parametrize("k,dA,seed", [(2, 2, 0), (3, 2, 1), (4, 3, 2), (5, 2, 3), (8, 2, 4)])
def test_marginal_matches_brute_force(k, dA, seed):
    bs = random_block_state(k, dA, seed)
    rho = blocks_to_global(bs, build_schur_basis(k))
    brute = naive_partial_trace(rho.matrix, (dA,) + (2,) * k, (0, 1))
    assert np.linalg.norm(marginal_from_blocks(bs).matrix - brute) < 1e-10


def test_round_trip_on_invariant_state():
    for k, dA in ((2, 2), (3, 3), (4, 2)):
        basis = build_schur_basis(k)
        bs = random_block_state(k, dA, seed=10 + k)
        rho = blocks_to_global(bs, basis)
        back = global_to_blocks(rho, basis)
        for lam in list_diagrams(k):
            assert np.linalg.norm(back.blocks[lam] - bs.blocks[lam]) < 1e-10
        again = blocks_to_global(back, basis)
        assert np.linalg.norm(again.matrix - rho.matrix) < 1e-10


@pytest.mark.parametrize("k,dA", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_extraction_equals_group_twirl(k, dA):
    # gluing the extracted blocks of any state reproduces its permutation
    # average over the full group
    gen = np.random.default_rng(100 * k + dA)
    rho = DensityMatrix(random_density(dA * 2**k, gen), (dA,) + (2,) * k)
    basis = build_schur_basis(k)
    glued = blocks_to_global(global_to_blocks(rho, basis), basis)
    assert np.linalg.norm(glued.matrix - full_group_average(rho.matrix, k)) < 1e-10


def test_twirled_marginal_averages_the_legs():
    k, dA = 3, 2
    gen = np.random.default_rng(42)
    rho = DensityMatrix(random_density(dA * 2**k, gen), (dA,) + (2,) * k)
    bs = global_to_blocks(rho, build_schur_basis(k))
    avg = sum(rho.marginal((0, i)) for i in range(1, k + 1)) / k
    assert np.linalg.norm(marginal_from_blocks(bs).matrix - avg) < 1e-12


def test_glue_rejects_mismatched_basis(basis2):
    bs = random_block_state(3, 2, seed=0)
    with pytest.raises(ValueError, match="basis is for k=2"):
        blocks_to_global(bs, basis2)


def test_extract_rejects_non_qubit_layout(basis2):
    rho = DensityMatrix(np.eye(12) / 12, (2, 3, 2))
    with pytest.raises(ValueError, match="layout"):
        global_to_blocks(rho, basis2)


@given(seed=st.integers(0, 10_000), k=st.integers(2, 5), dA=st.integers(2, 3))
@settings(max_examples=25, deadline=None)
def test_gen_is_deterministic_and_consistent(seed, k, dA):
    marg1, bs1 = gen_random_extendible(k, dA, seed)
    marg2, bs2 = gen_random_extendible(k, dA, seed)
    assert np.array_equal(marg1.matrix, marg2.matrix)
    assert bs1.blocks.keys() == bs2.blocks.keys()
    for lam, x in bs1.blocks.items():
        assert np.array_equal(bs2.blocks[lam], x)
    assert np.linalg.norm(marginal_from_blocks(bs1).matrix - marg1.matrix) < 1e-12


def test_gen_profiles():
    top = YoungDiagram(4, 0)
    _, all_bs = gen_random_extendible(4, 2, 1, PROFILE_ALL)
    assert all_bs.blocks[top].any()
    marg, bare = gen_random_extendible(4, 2, 1, PROFILE_EXCLUDE_BOSONIC)
    assert top not in bare.blocks
    assert set(bare.blocks) == set(list_diagrams(4)[1:])
    # the marginal is still a valid state
    assert np.linalg.eigvalsh(marg.matrix)[0] > -1e-12
    assert abs(np.trace(marg.matrix).real - 1.0) < 1e-12


def test_gen_refuses_k_above_the_cap_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made for a k above the cap")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for k, dA, profile in ((65, 4, PROFILE_ALL), (400, 4, PROFILE_ALL), (65, 2, PROFILE_EXCLUDE_BOSONIC)):
        with pytest.raises(ValueError, match=rf"^k={k} outside 1\.\.64$"):
            gen_random_extendible(k, dA, 0, profile)
    with pytest.raises(ValueError, match=r"^k=65 outside 1\.\.64$"):
        BlockState(65, 1, {})


def _refused_without_allocating(call, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_full_space_arrays_above_the_byte_bound_are_refused_before_allocation(monkeypatch):
    # at the 1 GiB bound an embedded state with dA 2^k above 8192 is refused:
    # from k = 14 at dA = 1, k = 13 at dA = 2 and k = 12 at dA = 3 or 4
    for dA, k, mib in ((1, 14, "4096"), (2, 13, "4096"), (3, 12, "2304"), (4, 12, "4096")):
        sigma = BosonicState(dA, k, np.eye(dA * (k + 1)) / (dA * (k + 1)))
        message = rf"^the embedded state of dA={dA}, k={k} needs {mib}\.0 MiB, above the 1024 MiB limit$"
        _refused_without_allocating(sigma.embed, message)
    # at a 1 MiB bound: the k = 8 basis takes 0.5 MiB and a dA = 1, k = 8
    # state exactly 1 MiB; the k = 9 basis takes 2 MiB, a dA = 2, k = 8 state 4 MiB
    monkeypatch.setattr(caps, "DENSE_BYTES_LIMIT", 2**20)
    basis = build_schur_basis(8)
    _, small = gen_random_extendible(8, 1, 0)
    assert blocks_to_global(small, basis).dim == sym_to_bos(small).embed().dim == 256
    _, witness = gen_random_extendible(8, 2, 0)
    bosonic = sym_to_bos(witness)
    limit = r"needs 4\.0 MiB, above the 1 MiB limit$"
    _refused_without_allocating(lambda: build_schur_basis(9), r"^the Schur basis of k=9 needs 2\.0 MiB, ")
    _refused_without_allocating(lambda: blocks_to_global(witness, basis), "^the glued state of dA=2, k=8 " + limit)
    _refused_without_allocating(bosonic.embed, "^the embedded state of dA=2, k=8 " + limit)


def test_gen_builds_its_psd_blocks_without_a_positivity_check(monkeypatch):
    counted = []
    monkeypatch.setattr("symext.blocks.eigenvalue_below", lambda *a: counted.append(a) or eigenvalue_below(*a))
    shapes = ((2, 1, 0, PROFILE_ALL), (5, 3, 1, PROFILE_EXCLUDE_BOSONIC), (10, 4, 2, PROFILE_ALL))
    planted = [gen_random_extendible(*shape) for shape in shapes]
    assert counted == []
    # every block is a Ginibre product g g^H, so the skipped check passes
    for _, bs in planted:
        BlockState(bs.k, bs.dA, bs.blocks)
    assert len(counted) == sum(len(bs.blocks) for _, bs in planted)


def test_gen_rejects_bad_arguments():
    with pytest.raises(ValueError, match="profile"):
        gen_random_extendible(3, 2, 0, "everything")
    with pytest.raises(ValueError, match="outside 1..4"):
        gen_random_extendible(3, 5, 0)
    with pytest.raises(ValueError, match="k >= 2"):
        gen_random_extendible(1, 2, 0, PROFILE_EXCLUDE_BOSONIC)
    for k, dA, field in ((3.0, 2, "k"), (True, 2, "k"), (3, 2.0, "dA")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            gen_random_extendible(k, dA, 0)

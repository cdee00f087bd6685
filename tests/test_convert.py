import numpy as np
import pytest

from conftest import (
    adjacent_transposition,
    dicke,
    naive_partial_trace,
    permutation_operator,
    product_state,
    random_density,
    singlet_state,
)
from symext.blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    BlockState,
    blocks_to_global,
    gen_random_extendible,
    global_to_blocks,
    marginal_from_blocks,
)
from symext.convert import (
    BosonicState,
    _bosonic_sum,
    _swap_adjacent_legs,
    sym_to_bos,
    tilde_state,
    verify_extension,
)
from symext.io import load_blocks, save_blocks
from symext.linalg import DensityMatrix, hermitian_part, partial_trace
from symext.schur import build_schur_basis, sector_tables, sym_isometry
from symext.solver import qutrit_counterexample, solve_symmetric
from symext.young import YoungDiagram, hook_dim, list_diagrams

from test_blocks import random_block_state
from test_solver import _pure_products, _werner


def test_bosonic_state_validation():
    with pytest.raises(ValueError, match="shape"):
        BosonicState(2, 2, np.eye(4) / 4)
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.eye(6, dtype=complex) / 6
        bad[0, 1] = 1.0
        BosonicState(2, 2, bad)
    with pytest.raises(ValueError, match="trace"):
        BosonicState(2, 2, np.eye(6))
    # non-finite entries on the diagonal, and inf at (i, j) and at (j, i),
    # whose difference is NaN
    for entries in ({(3, 3): np.nan}, {(3, 3): -np.inf}, {(3, 3): complex(np.nan, 0)},
                    {(1, 4): np.inf, (4, 1): np.inf}):
        bad = np.eye(6, dtype=complex) / 6
        for ij, v in entries.items():
            bad[ij] = v
        with pytest.raises(ValueError, match=r"^block for \[2,0\] entries must be finite$"):
            BosonicState(2, 2, bad)
    bos = BosonicState(2, 2, np.eye(6) / 6)
    assert bos.matrix.flags.writeable is False
    for dA, k, field in ((2.9, 2, "dA"), (2, 2.0, "k"), (True, 2, "dA"), (2, np.True_, "k")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            BosonicState(dA, k, np.eye(6) / 6)
    # numpy integers are integers; the sizes are kept as Python ints
    bos = BosonicState(np.int64(2), np.uint8(2), np.eye(6) / 6)
    assert (bos.dA, bos.k) == (2, 2) and type(bos.dA) is int and type(bos.k) is int
    # k runs over 1..64, as for a BlockState
    for k in (0, -1, 65):
        with pytest.raises(ValueError, match=rf"^k={k} outside 1\.\.64$"):
            BosonicState(2, k, np.eye(2) / 2)
    assert BosonicState(1, 64, np.eye(65) / 65).k == 64


def test_a_bosonic_state_is_the_top_sector_block_state():
    # its glue through the sector basis is its lift through the Dicke isometry
    for k in range(1, 11):
        for dA in (1, 2) if k <= 8 else (1,):
            bos = sym_to_bos(random_block_state(k, dA, seed=k + dA))
            assert isinstance(bos, BlockState)
            assert list(bos.blocks) == [YoungDiagram(k, 0)] and bos.blocks[YoungDiagram(k, 0)] is bos.matrix
            assert repr(bos) == f"BosonicState(k={k}, dA={dA}, sectors=[{k},0])"
            lift = np.kron(np.eye(dA), sym_isometry(k, 2))
            glued = blocks_to_global(bos, build_schur_basis(k))
            assert np.abs(glued.matrix - lift @ bos.matrix @ lift.conj().T).max() <= 1e-12, (k, dA)


def test_conversion_keeps_the_trace_and_finiteness_checks():
    # a block state whose trace is off by 5e-5, outside BlockState's 1e-6,
    # fails the conversion's trace check
    lam = YoungDiagram(2, 0)
    loose = BlockState._assembled(2, 1, {lam: np.eye(3) * (1 + 5e-5) / 3})
    with pytest.raises(ValueError, match="^weighted block trace .* is not 1 within 1e-06$"):
        sym_to_bos(loose)
    # finite blocks whose scaled entries overflow: sector [3,1] scales its
    # diagonal by 3
    x = np.diag([8e307, -8e307, 1 / 3]).astype(complex)
    overflow = BlockState(4, 1, {YoungDiagram(3, 1): x}, check_psd=False)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^block for \[4,0\] entries must be finite$"):
        sym_to_bos(overflow)
    # entries too large for a finite squared norm but finite are kept
    top = np.diag([1e200, -1e200, 1.0, 0.0, 0.0]).astype(complex)
    bos = sym_to_bos(BlockState(4, 1, {YoungDiagram(4, 0): top}, check_psd=False))
    assert np.array_equal(bos.matrix, top)


def test_constructors_hold_finite_entries_where_the_hermitian_sum_overflows():
    # 1e308 + 1e308 overflows, so the Hermitian part is taken as x / 2 + x^H / 2
    m = np.array([[0.5, 1e308 - 1.5e308j], [1e308 + 1.5e308j, 0.5]])
    top = YoungDiagram(1, 0)
    held = (
        DensityMatrix(m, (2,), check_psd=False).matrix,
        BlockState(1, 1, {top: m}, check_psd=False).blocks[top],
        BosonicState(1, 1, m).matrix,
    )
    for matrix in held:
        assert np.array_equal(matrix, m)
    # a finite sum is still (x + x^H) * 0.5: halving 5e-324 first would give 0
    tiny = np.array([[0.5, 5e-324], [5e-324, 0.5]])
    assert DensityMatrix(tiny, (2,), check_psd=False).matrix[0, 1] == 5e-324
    assert BosonicState(1, 1, tiny).matrix[1, 0] == 5e-324


def test_a_deviation_that_overflows_is_reported_as_inf():
    # finite entries whose x - x^H overflows: the deviation is unbounded, not NaN
    m = np.array([[0.5, 1.7e308], [-1.7e308, 0.5]])
    top = YoungDiagram(1, 0)
    for build, message in (
        (lambda: DensityMatrix(m, (2,)), r"^matrix is not Hermitian within 1e-08 \(deviation inf\)$"),
        (lambda: BlockState(1, 1, {top: m}), r"^block for \[1,0\] not Hermitian \(deviation inf\)$"),
        (lambda: BosonicState(1, 1, m), r"^block for \[1,0\] not Hermitian \(deviation inf\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_a_deviation_whose_square_overflows_is_reported_finite():
    # x - x^H is finite but its squared norm is not: the deviation is
    # ||x - x^H|| / 2 = sqrt(2) 1e200, measured on a scaled copy
    m = np.array([[0.5, 1e200], [-1e200, 0.5]])
    top = YoungDiagram(1, 0)
    for build, message in (
        (lambda: DensityMatrix(m, (2,)), r"^matrix is not Hermitian within 1e-08 \(deviation 1\.414e\+200\)$"),
        (lambda: BlockState(1, 1, {top: m}), r"^block for \[1,0\] not Hermitian \(deviation 1\.414e\+200\)$"),
        (lambda: BosonicState(1, 1, m), r"^block for \[1,0\] not Hermitian \(deviation 1\.414e\+200\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 10, 16, 32, 64])
def test_conversion_sum_is_its_own_hermitian_part(k):
    # sym_to_bos skips the Hermitian check: its sum of Schur products of
    # Hermitian blocks with real symmetric scales must equal its Hermitian
    # part bit for bit, planted witnesses and solver certificates alike
    for lam in list_diagrams(k):
        *_, scale = sector_tables(lam)
        assert np.array_equal(scale, scale.T), lam
    for dA in (1, 2, 3, 4):
        for profile in (PROFILE_ALL, PROFILE_EXCLUDE_BOSONIC):
            rho, bs = gen_random_extendible(k, dA, seed=k + dA, profile=profile)
            for state in (bs, solve_symmetric(rho, k).certificate):
                m = _bosonic_sum(state)
                # atol 0: the deviation from Hermitian is exactly 0
                assert hermitian_part(m, 0.0, "", "").tobytes() == m.tobytes(), (dA, profile)
                assert sym_to_bos(state).matrix.tobytes() == m.tobytes()


def _solver_certificates():
    """(rho, k, report, cholesky) of FEASIBLE solves on both paths of the
    solver; cholesky says which path the solve must take."""
    # decided at iteration 1 on the Cholesky path: planted states and the
    # feasible Werner grid
    for k in (1, 2, 3, 8, 64):
        for dA in (1, 2, 3, 4):
            rho, _ = gen_random_extendible(k, dA, seed=k + dA)
            yield rho, k, solve_symmetric(rho, k), True
    for k in range(2, 17):
        for off in (-0.05, -0.005, -0.002):
            rho = _werner((k + 2) / (3 * k) + off)
            yield rho, k, solve_symmetric(rho, k), True
    # pure products need DR steps: the certificate is an eigenvalue clip
    states = _pure_products()
    real = np.kron([np.cos(0.3), np.sin(0.3)], [np.cos(0.6), np.sin(0.6)])
    for rho in [states[3, i] for i in range(5)] + [DensityMatrix.from_ket(real, (2, 2))]:
        yield rho, 3, solve_symmetric(rho, 3), False


def test_a_solver_certificate_is_its_own_conversion(tmp_path):
    # the top-sector certificate is already bosonic: sym_to_bos returns it,
    # and its bytes are those of the bosonic sum, with no -0 to clear
    for n, (rho, k, report, cholesky) in enumerate(_solver_certificates()):
        cert = report.certificate
        assert (report.iterations == 1) is cholesky, (k, n)
        assert type(cert) is BosonicState and sym_to_bos(cert) is cert, (k, n)
        summed = _bosonic_sum(cert).tobytes()
        assert cert.matrix.tobytes() == summed, (k, n)
        assert verify_extension(cert, rho, k, tol=1e-7).bosonic_ok, (k, n)
        # read back from a blocks file it is a plain BlockState, summed anew
        save_blocks(cert, tmp_path / "cert.blocks")
        loaded = load_blocks(tmp_path / "cert.blocks")
        assert type(loaded) is BlockState
        bos = sym_to_bos(loaded)
        assert type(bos) is BosonicState and not bos.matrix.flags.writeable
        assert bos.matrix.tobytes() == summed, (k, n)


def test_pair_state_converts_to_triplet():
    # the lone antisymmetric pair block converts onto the middle weight of
    # the symmetric pair subspace, leaving the A factor untouched
    xi = np.array([0.6, 0.8j])
    basis = build_schur_basis(2)
    bs = BlockState(2, 2, {YoungDiagram(1, 1): np.outer(xi, xi.conj())})
    sigma = blocks_to_global(sym_to_bos(bs), basis)
    plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    want = np.kron(np.outer(xi, xi.conj()), np.outer(plus, plus))
    assert np.linalg.norm(sigma.matrix - want) < 1e-12
    # same endpoint when starting from the glued full-space state, and from
    # xi (x) singlet written down directly
    minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    for rho in (blocks_to_global(bs, basis), DensityMatrix.from_ket(np.kron(xi, minus), (2, 2, 2))):
        again = blocks_to_global(sym_to_bos(global_to_blocks(rho)), basis)
        assert np.linalg.norm(again.matrix - want) < 1e-12


def test_already_bosonic_states_are_fixed_points():
    for k, dA in ((2, 2), (4, 3), (6, 2)):
        bs = random_block_state(k, dA, seed=k, diagrams=[YoungDiagram(k, 0)])
        bos = sym_to_bos(bs)
        assert np.linalg.norm(bos.matrix - bs.blocks[YoungDiagram(k, 0)]) < 1e-13


@pytest.mark.parametrize("k,dA,seed", [(2, 2, 0), (3, 3, 1), (4, 2, 2), (6, 2, 3), (8, 2, 4)])
def test_conversion_preserves_trace_and_marginal(k, dA, seed):
    bs = random_block_state(k, dA, seed)
    bos = sym_to_bos(bs)
    assert abs(np.trace(bos.matrix).real - 1.0) < 1e-12
    dev = np.linalg.norm(marginal_from_blocks(bos).matrix - marginal_from_blocks(bs).matrix)
    assert dev < 1e-10


@pytest.mark.parametrize("k,dA,seed", [(2, 2, 5), (3, 2, 6), (5, 3, 7)])
def test_conversion_marginal_in_full_space(k, dA, seed):
    bs = random_block_state(k, dA, seed)
    basis = build_schur_basis(k)
    sigma = blocks_to_global(sym_to_bos(bs), basis)
    dims = (dA,) + (2,) * k
    got = naive_partial_trace(sigma.matrix, dims, (0, 1))
    want = naive_partial_trace(blocks_to_global(bs, basis).matrix, dims, (0, 1))
    assert np.linalg.norm(got - want) < 1e-10


def test_entrywise_rescale_keeps_blocks_psd():
    # the sector rescaling is a Schur product with a PSD unit-diagonal
    # matrix, so it cannot create negative eigenvalues
    gen = np.random.default_rng(3)
    for k in (3, 5, 7):
        for lam in list_diagrams(k):
            dA = 2
            n = dA * lam.num_weights
            g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            x = g @ g.conj().T
            scale = np.kron(np.ones((dA, dA)), sector_tables(lam)[3])
            assert np.linalg.eigvalsh(x * scale)[0] > -1e-10


@pytest.mark.parametrize("k", [1, 2, 5, 10, 33])
def test_cached_sector_scale_is_read_only_and_exact(k):
    # the conversion of a one-sector block is its Schur product with the
    # cached, read-only scale of that sector, bit for bit
    gen = np.random.default_rng(k)
    for lam in list_diagrams(k):
        *_, scale = sector_tables(lam)
        assert scale is sector_tables(lam)[3]
        with pytest.raises(ValueError, match="read-only"):
            scale[0, 0] = 0.0
        n = lam.num_weights
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        x = g @ g.conj().T
        bs = BlockState(k, 1, {lam: x / (hook_dim(lam) * x.trace().real)})
        lo = lam.lambda2
        assert np.array_equal(_bosonic_sum(bs)[lo : lo + n, lo : lo + n], bs.blocks[lam] * scale)


def test_wrong_rescale_coefficient_breaks_the_marginal():
    # corrupting one adjacent-weight coefficient must surface in the pair
    # marginal; guards against compensating-error implementations
    k, dA = 3, 2
    bs = random_block_state(k, dA, seed=9)
    out = np.zeros((dA, k + 1, dA, k + 1), dtype=complex)
    for lam, x in bs.blocks.items():
        nw = lam.num_weights
        scale = sector_tables(lam)[3]
        if lam.lambda2 == 1:
            scale = scale * (1 + 1e-3 * (1 - np.eye(nw)))
        lo = lam.lambda2
        out[:, lo : lo + nw, :, lo : lo + nw] += x.reshape(dA, nw, dA, nw) * scale[None, :, None, :]
    bad = BosonicState(dA, k, out.reshape(dA * (k + 1), dA * (k + 1)))
    dev = np.linalg.norm(marginal_from_blocks(bad).matrix - marginal_from_blocks(bs).matrix)
    assert dev > 1e-6


def planted_grid(profiles):
    """Ten seeds for every k in 2..6, dA in (2, 3) and profile."""
    return [
        (k, dA, seed, profile)
        for k in (2, 3, 4, 5, 6)
        for dA in (2, 3)
        for profile in profiles
        for seed in range(10)
    ]


def test_planted_non_bosonic_witness_converts():
    # witnesses with and without top-sector weight convert to bosonic
    # extensions of their marginals at tolerance 1e-8
    cases = planted_grid((PROFILE_ALL, PROFILE_EXCLUDE_BOSONIC))
    assert len(cases) == 200
    for k, dA, seed, profile in cases:
        rho, witness = gen_random_extendible(k, dA, seed, profile)
        report = verify_extension(sym_to_bos(witness), rho, k, tol=1e-8)
        assert report.bosonic_ok, (k, dA, seed, profile, report)


def test_three_copy_golden_conversion():
    # the [2,1] sector of three qubits at weights -1/2 and +1/2 is spanned by
    # these explicit pairs; a generic PSD mixture over (A, pair label) must
    # convert onto A (x) span{Dicke(3, -1/2), Dicke(3, +1/2)} with its pair
    # marginal unchanged
    e = np.eye(8)
    low = ((2 * e[1] - e[2] - e[4]) / np.sqrt(6), (e[2] - e[4]) / np.sqrt(2))
    high = ((2 * e[6] - e[5] - e[3]) / np.sqrt(6), (e[5] - e[3]) / np.sqrt(2))
    coeff = random_density(4, np.random.default_rng(34)).reshape(2, 2, 2, 2)
    glue = np.zeros((2, 8, 2, 8), dtype=complex)
    for i, vi in enumerate((low, high)):
        for j, vj in enumerate((low, high)):
            for mu in range(2):
                glue[i, :, j, :] += 0.5 * np.outer(vi[mu], vj[mu].conj())
    rho = DensityMatrix(np.einsum("xiyj,iwjv->xwyv", coeff, glue).reshape(16, 16), (2, 2, 2, 2))

    basis = build_schur_basis(3)
    sigma = blocks_to_global(sym_to_bos(global_to_blocks(rho)), basis)
    phi = np.column_stack([dicke(3, -0.5), dicke(3, 0.5)])
    proj = np.kron(np.eye(2), phi @ phi.conj().T)
    # the input lies wholly outside that span, so the conversion moved it
    assert np.abs(proj @ rho.matrix @ proj).max() <= 1e-12
    assert np.abs(sigma.matrix - proj @ sigma.matrix @ proj).max() <= 1e-10
    assert np.abs(sigma.marginal([0, 1]) - rho.marginal([0, 1])).max() <= 1e-10


def test_large_k_weight_table_matches_embedding():
    # the verifier reads the pair marginal from the weight tables; check them
    # against an explicit glue once, at k = 9
    k, dA = 9, 2
    bs = random_block_state(k, dA, seed=21, diagrams=list_diagrams(k)[:3])
    bos = sym_to_bos(bs)
    full = blocks_to_global(bos, build_schur_basis(k))
    brute = partial_trace(full.matrix, full.dims, (0, 1))
    assert np.linalg.norm(marginal_from_blocks(bos).matrix - brute) < 1e-10
    report = verify_extension(bos, marginal_from_blocks(bs), k)
    assert report.bosonic_ok


def test_verify_flags_wrong_marginal():
    rho, witness = gen_random_extendible(3, 2, 4)
    other, _ = gen_random_extendible(3, 2, 5)
    report = verify_extension(sym_to_bos(witness), other, 3)
    assert not report.marginal_ok
    assert report.psd_ok and report.trace_ok


def test_verify_flags_broken_invariance():
    # a product extension with unequal legs is not permutation invariant
    gen = np.random.default_rng(8)
    a, b1, b2 = (random_density(2, gen) for _ in range(3))
    sigma = DensityMatrix(np.kron(a, np.kron(b1, b2)), (2, 2, 2))
    rho = DensityMatrix(np.kron(a, b1), (2, 2))
    report = verify_extension(sigma, rho, 2)
    assert not report.invariance_ok


@pytest.mark.parametrize(
    "k,d", [(k, 2) for k in range(2, 9)] + [(k, 3) for k in range(2, 6)]
)
def test_leg_swap_equals_dense_permutation_conjugation(k, d):
    # the axis permutation must give exactly the entries of the dense
    # conjugation, on matrices that are not invariant, for every transposition
    for dA in (1, 2, 3):
        dims = (dA,) + (d,) * k
        n = dA * d**k
        g = np.random.default_rng(10 * k + dA).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
        m = g + g.conj().T
        for t in range(k - 1):
            p = np.kron(np.eye(dA), permutation_operator(k, adjacent_transposition(k, t), d))
            dense = p @ m @ p.T
            swapped = _swap_adjacent_legs(m, dims, t)
            assert np.array_equal(swapped, dense)
            assert np.linalg.norm(swapped - m) == np.linalg.norm(dense - m) > 0


def test_verify_flags_asymmetry_between_the_last_two_legs():
    # legs 1..3 are equal and leg 4 differs, so only transposition t=2, the
    # last one, moves the state
    gen = np.random.default_rng(12)
    a, b, c = (random_density(2, gen) for _ in range(3))
    matrix = np.kron(a, np.kron(np.kron(b, b), np.kron(b, c)))
    dims = (2, 2, 2, 2, 2)
    sigma = DensityMatrix(matrix, dims)
    moved = [np.linalg.norm(_swap_adjacent_legs(sigma.matrix, dims, t) - sigma.matrix) > 1e-6 for t in range(3)]
    assert moved == [False, False, True]
    report = verify_extension(sigma, DensityMatrix(np.kron(a, b), (2, 2)), 4)
    assert not report.invariance_ok
    assert report.invariance_deviation > 1e-6


def test_weight_coordinates_report_invariance_by_construction():
    # certificates are checked in sector coordinates at every k; only a
    # full-space state has its invariance measured
    for k in (3, 9):
        rho, witness = gen_random_extendible(k, 2, 3)
        for ext in (witness, sym_to_bos(witness)):
            report = verify_extension(ext, rho, k)
            assert report.by_construction
            assert report.invariance_deviation == 0.0
    small, w = gen_random_extendible(3, 2, 3)
    full = blocks_to_global(sym_to_bos(w), build_schur_basis(3))
    assert not verify_extension(full, small, 3).by_construction


def test_verify_layout_errors():
    rho = product_state()
    sigma = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
    with pytest.raises(ValueError, match="extension legs"):
        verify_extension(sigma, rho, 3)
    with pytest.raises(ValueError, match="marginal layout"):
        verify_extension(sigma, DensityMatrix(np.eye(6) / 6, (3, 2)), 2)
    with pytest.raises(TypeError):
        verify_extension(np.eye(8) / 8, rho, 2)
    # d-level legs at k > 2 are measured too: Sym^3(C^3) holds 10 of the 27
    # dimensions, so the maximally mixed extension has 17/27 outside it
    sig3 = DensityMatrix(np.eye(81) / 81, (3, 3, 3, 3))
    report = verify_extension(sig3, DensityMatrix(np.eye(9) / 9, (3, 3)), 3)
    assert report.symmetric_ok and not report.support_ok
    assert abs(report.nonsymmetric_overlap - 17 / 27) < 1e-12


def test_verify_accepts_block_certificates():
    rho, witness = gen_random_extendible(4, 2, 6)
    report = verify_extension(witness, rho, 4)
    assert report.symmetric_ok
    # the witness spreads over every sector, so it is not itself bosonic
    assert not report.bosonic_ok
    rho2, w2 = gen_random_extendible(9, 2, 6)
    assert verify_extension(w2, rho2, 9).symmetric_ok
    # k is a size: numpy integers pass, bools and floats are refused
    assert verify_extension(w2, rho2, np.int64(9)) == verify_extension(w2, rho2, 9)
    assert verify_extension(sym_to_bos(w2), rho2, np.int32(9)).bosonic_ok
    for k in (9.0, True):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            verify_extension(w2, rho2, k)
    # an infinite tol would pass anything and a NaN fail everything
    for tol in (-1e-8, float("inf"), float("nan"), -0.5):
        with pytest.raises(ValueError, match="^tol must be finite and not negative, got "):
            verify_extension(w2, rho2, 9, tol=tol)
    # a numpy scalar is printed as the plain float it holds
    with pytest.raises(ValueError, match=r"^tol must be finite and not negative, got -0\.5$"):
        verify_extension(w2, rho2, 9, tol=np.float64(-0.5))
    assert verify_extension(w2, rho2, 9, tol=0.0).tol == 0.0


def test_maximally_mixed_is_tilde_fixed_point():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    for k in (1, 2, 5):
        rep = tilde_state(rho, k)
        assert np.linalg.norm(rep.state.matrix - np.eye(4) / 4) < 1e-14
        assert rep.ppt


def test_singlet_tilde_crosses_at_two_legs():
    rep = tilde_state(singlet_state(), 2)
    assert abs(rep.pt_min_eigenvalue + 0.125) < 1e-12
    assert not rep.ppt
    # one leg mixes enough to pass
    assert tilde_state(singlet_state(), 1).ppt


def test_planted_marginals_pass_the_screen():
    cases = planted_grid((PROFILE_ALL,))
    assert len(cases) == 100
    for k, dA, seed, profile in cases:
        rho, _ = gen_random_extendible(k, dA, seed, profile)
        rep = tilde_state(rho, k)
        assert rep.ppt, (k, dA, seed, rep.pt_min_eigenvalue)
        assert abs(np.trace(rep.state.matrix).real - 1.0) < 1e-12


def test_tilde_general_b_dimension():
    marg, _, _ = qutrit_counterexample()
    rep = tilde_state(marg, 2)
    # 2-leg swap-invariant extension exists, so the screen cannot reject
    assert rep.ppt
    assert rep.state.dims == (3, 3)
    assert abs(np.trace(rep.state.matrix).real - 1.0) < 1e-12
    # dB = 2 and general formulas differ: check the qubit branch weights
    rho = singlet_state()
    expect = (np.kron(np.eye(2) / 2, np.eye(2)) + 3 * rho.matrix) / 5
    assert np.linalg.norm(tilde_state(rho, 3).state.matrix - expect) < 1e-14


def test_tilde_validation():
    with pytest.raises(ValueError, match="bipartite"):
        tilde_state(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), 2)
    with pytest.raises(ValueError, match="at least 1"):
        tilde_state(product_state(), 0)
    for k in (2.5, True, np.float64(2), "2"):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            tilde_state(product_state(), k)
    # numpy integers are integers
    assert np.array_equal(tilde_state(product_state(), np.int64(3)).state.matrix, tilde_state(product_state(), 3).state.matrix)
    # the mixing weights are floats, so k must fit in one
    with pytest.raises(ValueError, match="^k does not fit in a float$"):
        tilde_state(product_state(), 10**400)
    assert tilde_state(product_state(), 10**300).ppt

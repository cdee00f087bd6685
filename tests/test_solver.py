from collections import OrderedDict
from math import sqrt

import numpy as np
import pytest

from conftest import planted_two_copy, product_state, random_density, random_two_qubit_states, singlet_state
from symext import caps, linalg, solver
from symext.blocks import PROFILE_EXCLUDE_BOSONIC, BlockState, gen_random_extendible, marginal_from_blocks, raw_marginal_from_blocks
from symext.convert import BosonicState, sym_to_bos, verify_extension
from symext.linalg import DensityMatrix, hermitian_part, partial_trace
from symext.solver import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    qutrit_counterexample,
    solve_bosonic,
    solve_bosonic_k2_generic,
    solve_symmetric,
)
from symext.schur import sym_isometry
from symext.young import YoungDiagram


def test_symmetric_and_bosonic_are_one_solver(monkeypatch):
    # every public name calls the one private solve and none calls another,
    # so a wrapper around each public name sees every solve once
    solve, calls = solver._solve, []
    monkeypatch.setattr(solver, "_solve", lambda rho, k: calls.append(k) or solve(rho, k))
    for name in ("solve_symmetric", "solve_bosonic", "solve_bosonic_k2_generic"):
        monkeypatch.setattr(solver, name, pytest.fail)
    rho = product_state()
    reports = [solve_symmetric(rho, 2), solve_bosonic(rho, 2), solve_bosonic_k2_generic(rho)]
    assert calls == [2, 2, 2]
    for report in reports[1:]:
        assert report.certificate.matrix.tobytes() == reports[0].certificate.matrix.tobytes()


def _werner(p):
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4, (2, 2))


def test_werner_verdicts_match_closed_form_threshold():
    # the Werner state has a k-symmetric extension iff p <= (k + 2) / (3k)
    # (Johnson and Viola, PRA 88, 032323)
    for k in range(2, 17):
        pc = (k + 2) / (3 * k)
        for off in (0.05, -0.05, 0.005, -0.005, 0.002, -0.002):
            rho = _werner(pc + off)
            report = solve_symmetric(rho, k)
            assert report.status == (FEASIBLE if off < 0 else INFEASIBLE), (k, off, report)
            if report.status == FEASIBLE:
                assert verify_extension(report.certificate, rho, k, tol=1e-7).symmetric_ok, (k, off)
                assert verify_extension(sym_to_bos(report.certificate), rho, k, tol=1e-7).bosonic_ok, (k, off)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_product_state_always_extendible(k):
    rho = product_state()
    report = solve_symmetric(rho, k)
    assert report.status == FEASIBLE
    assert report.residual <= 1e-8
    assert report.certificate is not None
    check = verify_extension(report.certificate, rho, k, tol=1e-7)
    assert check.symmetric_ok


def _pure_products():
    """Pure products |a><a| x |b><b|, 20 per k for k = 2, 3, 4, 8, 16, 32, 64 in
    turn, from one stream: a and then b complex Gaussian, normalised."""
    gen = np.random.default_rng(0)
    out = {}
    for k in (2, 3, 4, 8, 16, 32, 64):
        for i in range(20):
            a, b = (gen.standard_normal(2) + 1j * gen.standard_normal(2) for _ in range(2))
            out[k, i] = DensityMatrix.from_ket(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)), (2, 2))
    return out


# the draws solved at each k; those at k = 32 and 64 cover states that were
# once called INFEASIBLE there (0..3 and 3) while keeping the test short: a
# solve at k = 64 takes about 650 iterations
PURE_PRODUCT_DRAWS = {3: range(20), 4: range(20), 8: range(20), 16: range(20), 32: range(4), 64: [3]}


@pytest.mark.parametrize("k", sorted(PURE_PRODUCT_DRAWS))
def test_pure_products_are_extendible(k):
    # a Farkas vector whose tested and reported forms differed once made
    # these separable states INFEASIBLE
    states = _pure_products()
    for i in PURE_PRODUCT_DRAWS[k]:
        rho = states[k, i]
        report = solve_symmetric(rho, k)
        assert report.status == FEASIBLE, (k, i)
        assert verify_extension(report.certificate, rho, k).symmetric_ok, (k, i)


@pytest.mark.parametrize("k", [2, 3])
def test_singlet_not_extendible(k):
    report = solve_symmetric(singlet_state(), k)
    assert report.status == INFEASIBLE
    assert report.gap_estimate >= 1e-3
    assert report.certificate is None


def test_singlet_one_copy_is_trivially_extendible():
    report = solve_symmetric(singlet_state(), 1)
    assert report.status == FEASIBLE


@pytest.mark.parametrize("k,dA,seed", [(2, 2, 0), (3, 2, 1), (4, 3, 2), (5, 2, 3)])
def test_planted_instances_feasible(k, dA, seed):
    rho, _ = gen_random_extendible(k, dA, seed)
    report = solve_symmetric(rho, k)
    assert report.status == FEASIBLE
    cert = report.certificate
    assert np.linalg.norm(marginal_from_blocks(cert).matrix - rho.matrix) <= 1e-8
    assert verify_extension(cert, rho, k, tol=1e-7).symmetric_ok


def test_extendibility_is_monotone_in_k():
    # a 4-leg witness marginal stays feasible at every smaller k
    rho, _ = gen_random_extendible(4, 2, 11)
    for k in (2, 3, 4):
        assert solve_symmetric(rho, k).status == FEASIBLE


def test_bosonic_matches_symmetric_for_qubit_legs():
    # marginals planted without any top-sector weight are still bosonic
    # extendible: for qubit legs the two hierarchies decide alike
    for k, seed in ((2, 5), (3, 6), (4, 7)):
        rho, witness = gen_random_extendible(k, 2, seed, PROFILE_EXCLUDE_BOSONIC)
        assert YoungDiagram(k, 0) not in witness.blocks
        report = solve_bosonic(rho, k)
        assert report.status == FEASIBLE
        cert = report.certificate
        assert set(cert.blocks) <= {YoungDiagram(k, 0)}
        assert np.linalg.norm(marginal_from_blocks(cert).matrix - rho.matrix) <= 1e-8
        assert verify_extension(cert, rho, k, tol=1e-7).bosonic_ok


def test_bosonic_rejects_singlet():
    report = solve_bosonic(singlet_state(), 2)
    assert report.status == INFEASIBLE
    assert report.gap_estimate >= 1e-3


def test_undecided_on_iteration_starvation(monkeypatch):
    # state 429 of the two-copy draw is extendible, but only barely: DR needs
    # hundreds of iterations to reach a certificate
    rho = DensityMatrix(random_two_qubit_states(430)[429], (2, 2))
    monkeypatch.setattr(solver, "_MAX_ITER", 10)
    report = solve_symmetric(rho, 2)
    assert report.status == UNDECIDED
    assert report.certificate is None and report.witness is None
    assert report.iterations == 10
    # gap_estimate is the length of the last DR step, measured at the exit
    assert report.gap_estimate == 0.009261101051190306
    monkeypatch.undo()
    assert solve_symmetric(rho, 2).status == FEASIBLE


def test_feasibility_is_monotone_in_k_on_random_states():
    # a k-leg extension restricts to one with fewer legs, so the verdicts
    # over k = 2..8 run FEASIBLE up to some k and INFEASIBLE after it
    for i, matrix in enumerate(random_two_qubit_states(100, seed=2)):
        rho = DensityMatrix(matrix, (2, 2))
        statuses = [solve_symmetric(rho, k).status for k in range(2, 9)]
        assert UNDECIDED not in statuses, (i, statuses)
        feasible = statuses.count(FEASIBLE)
        assert statuses == [FEASIBLE] * feasible + [INFEASIBLE] * (7 - feasible), (i, statuses)


def test_rejects_non_qubit_b_side():
    rho = DensityMatrix(np.eye(6) / 6, (2, 3))
    with pytest.raises(ValueError, match=r"is not \(A, qubit\); use solve_bosonic for other B dimensions$"):
        solve_symmetric(rho, 2)


def test_rejects_bad_k():
    with pytest.raises(ValueError, match=r"^k=0 outside 1\.\.64$"):
        solve_symmetric(product_state(), 0)


def test_sizes_must_be_integers_before_any_map_is_built(monkeypatch):
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    rho = product_state()
    for k in (3.0, True, np.True_, np.float64(3), "3"):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            solve_symmetric(rho, k)
    assert not solver._MAPS
    # numpy integers are integers: the same solve, under the same map key
    report = solve_symmetric(rho, np.int64(3))
    assert report.status == FEASIBLE and report.certificate.k == 3
    assert list(solver._MAPS) == [(3, 2, 2)] and type(next(iter(solver._MAPS))[0]) is int


def test_generic_pair_solver_agrees_on_qubits():
    rho = product_state()
    generic = solve_bosonic_k2_generic(rho)
    assert generic.status == FEASIBLE
    assert solve_bosonic(rho, 2).status == FEASIBLE
    assert generic.certificate is not None
    # certificate embeds to a valid two-leg extension
    lift = np.kron(np.eye(2), sym_isometry(2, 2))
    full = lift @ generic.certificate.matrix @ lift.T
    sigma = DensityMatrix(full, (2, 2, 2), checked=False)
    assert verify_extension(sigma, rho, 2, tol=1e-7).symmetric_ok

    assert solve_bosonic_k2_generic(singlet_state()).status == INFEASIBLE


@pytest.mark.parametrize("dA,dB", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_generic_pair_solver_certificates_verify(dA, dB):
    for seed in range(3):
        full = planted_two_copy(dA, dB, seed)
        rho = DensityMatrix(full.marginal((0, 1)), (dA, dB), checked=False)
        report = solve_bosonic_k2_generic(rho)
        assert report.status == FEASIBLE, (dA, dB, seed)
        cert = report.certificate
        assert cert.dims == (dA, dB * (dB + 1) // 2)
        lift = np.kron(np.eye(dA), sym_isometry(2, dB))
        sigma = DensityMatrix(lift @ cert.matrix @ lift.T, (dA, dB, dB), checked=False)
        assert verify_extension(sigma, rho, 2, tol=1e-7).bosonic_ok, (dA, dB, seed)


def test_generic_pair_solver_layout_check():
    # dB is read from the layout, so only a layout that is not bipartite is refused
    three_legs = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
    one_leg = DensityMatrix(np.eye(3) / 3, (3,))
    for rho in (three_legs, one_leg):
        with pytest.raises(ValueError, match=r"^layout \(.*\) is not bipartite$"):
            solve_bosonic_k2_generic(rho)


def test_antisymmetric_qutrit_marginal_not_bosonic_extendible():
    # swap-invariant two-leg extension exists by construction, yet no bosonic
    # one does once the amplitudes are pairwise distinct
    marg, full, ket = qutrit_counterexample()
    assert abs(np.linalg.norm(ket) - 1.0) < 1e-12
    # the amplitudes of |012>, |120> and |201> leave a negative residual slack
    a, b, c = ket[5], ket[15], ket[19]
    assert np.allclose((a, b, c), np.array([1.0, 2.0, 3.0]) / sqrt(28.0), rtol=0, atol=1e-15)
    assert a * a + b * b + c * c - 2 * (a * b + a * c + b * c) < 0
    check = verify_extension(full, marg, 2, tol=1e-8)
    assert check.symmetric_ok and not check.support_ok
    report = solve_bosonic_k2_generic(marg)
    assert report.status == INFEASIBLE
    assert report.gap_estimate >= 1e-4


def test_reports_echo_configuration_limits():
    # the certificate of the top-sector problem holds exactly the top sector
    report = solve_symmetric(product_state(), 3)
    assert list(report.certificate.blocks) == [YoungDiagram(3, 0)]
    assert report.certificate.blocks[YoungDiagram(3, 0)].shape == (2 * 4, 2 * 4)


def test_cone_project_idempotent_and_optimal(rng):
    n = 5
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2
    p = solver._cone_project(h)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12
    assert np.allclose(solver._cone_project(p), p, atol=1e-12)
    # clipping gives the Frobenius-nearest PSD matrix; any other PSD point is
    # farther
    other = solver._cone_project(h + 0.3 * np.eye(n))
    assert np.linalg.norm(h - p) <= np.linalg.norm(h - other) + 1e-12
    assert np.linalg.norm(h - p) <= np.linalg.norm(h) + 1e-12


def test_real_times_is_the_matrix_product(rng):
    # a complex vector goes in and comes out as its (rows, 2) float pairs: the
    # product is a @ z2 bit for bit, and read as complex it is a @ z
    a = rng.normal(size=(4, 7))
    z = rng.normal(size=7) + 1j * rng.normal(size=7)
    z2 = solver._pair_view(z)
    assert z2.shape == (7, 2) and np.shares_memory(z2, z)
    assert np.array_equal(z2[:, 0], z.real) and np.array_equal(z2[:, 1], z.imag)
    product = solver._real_times(a, z2)
    assert product.shape == (4, 2) and product.dtype == np.float64
    assert product.tobytes() == (a @ z2).tobytes()
    assert np.allclose(solver._complex_view(product), a @ z, rtol=0, atol=1e-14)
    assert solver._norm(z2) == np.linalg.norm(z)


def _hermitian_basis(n):
    """E_pp, E_pq + E_qp and i (E_pq - E_qp) for p < q."""
    for p in range(n):
        for q in range(p, n):
            h = np.zeros((n, n), dtype=complex)
            h[p, q] = h[q, p] = 1.0
            yield h
            if p < q:
                h = np.zeros((n, n), dtype=complex)
                h[p, q], h[q, p] = 1j, -1j
                yield h


def _on_hermitian_basis(cmap, marginal):
    """The constraint map and its oracle (marginal entries, then trace) on a Hermitian basis.

    The map reads raw block entries, but the oracles assume Hermitian input,
    so the two are compared on Hermitian matrices only.
    """
    dense = np.zeros((cmap.amap.shape[0], cmap.n * cmap.n))
    dense[:, cmap.cols] = cmap.amap
    basis = list(_hermitian_basis(cmap.n))
    got = np.array([dense @ h.ravel() for h in basis])
    want = np.array([np.append(marginal(h).ravel(), h.trace()) for h in basis])
    return got, want


@pytest.mark.parametrize("dA", [1, 2, 3, 4])
def test_sector_map_equals_column_by_column_map(dA):
    for k in range(1, 11):
        lam = YoungDiagram(k, 0)
        got, want = _on_hermitian_basis(
            solver._sym_map(k, dA, 2), lambda h: raw_marginal_from_blocks(dA, [(lam, h)]))
        assert np.array_equal(got, want), (k, dA)


@pytest.mark.parametrize("dA,dB", [(dA, dB) for dA in range(1, 5) for dB in range(2, 6)])
def test_pair_map_matches_embedding_loop(dA, dB):
    # verify checks a state on A tensor Sym^k(C^dB) with this map, so it is
    # held to the sym_isometry lift and its partial trace over B2..Bk at
    # every k with dA dB^k <= 729
    k = 2
    while dA * dB**k <= 729:
        cmap = solver._sym_map(k, dA, dB)
        n, d = cmap.n, dA * dB
        lift = np.kron(np.eye(dA), sym_isometry(k, dB))
        # want[x, y, p, q] = tr_(B2..Bk)(lift E_pq lift^T)[x, y] for every
        # matrix unit E_pq at once, summed in extended precision so that it
        # carries only the rounding of the lift's entries; partial_trace
        # checks it on one Hermitian h
        rows = lift.reshape(d, dB ** (k - 1), n).astype(np.longdouble)
        want = np.einsum("xrp,yrq->xypq", rows, rows).reshape(d * d, n * n)
        h = random_density(n, np.random.default_rng(k))
        assert np.allclose(
            want @ h.ravel(), partial_trace(lift @ h @ lift.T, (dA, dB, dB ** (k - 1)), (0, 1)).ravel(),
            rtol=0, atol=1e-14), k
        got = np.zeros((d * d + 1, n * n))
        got[:, cmap.cols] = cmap.amap
        # the lift holds rounded copies of 1/sqrt(m) where the closed form
        # has sqrt(n_i m_j) / k, so allow a few units in the last place
        assert np.allclose(got[:-1], want, rtol=0, atol=1e-15), k
        assert np.array_equal(got[-1], np.eye(n).ravel()), k
        k += 1


def test_constraint_map_is_cached_per_shape(monkeypatch):
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    built = []
    build = solver._sym_map
    monkeypatch.setattr(solver, "_sym_map", lambda *key: built.append(key) or build(*key))
    first, _ = gen_random_extendible(5, 2, 21)
    second, _ = gen_random_extendible(5, 2, 22, PROFILE_EXCLUDE_BOSONIC)
    cold = solve_symmetric(second, 5)
    solve_symmetric(first, 5)
    warm = solve_symmetric(second, 5)
    assert len(built) == 1

    cmap = solver._MAPS[(5, 2, 2)]
    for a in (cmap.cols, cmap.amap, cmap.gram_pinv):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        cmap.amap[0, 0] = 1.0

    assert (warm.status, warm.residual, warm.gap_estimate, warm.iterations) == (
        cold.status, cold.residual, cold.gap_estimate, cold.iterations)
    assert warm.certificate.blocks.keys() == cold.certificate.blocks.keys()
    for lam, x in cold.certificate.blocks.items():
        assert np.array_equal(warm.certificate.blocks[lam], x)


def test_cache_bound_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    monkeypatch.setattr(solver, "_MAP_CACHE_BYTES", 3000)
    maps = {key: solver._sym_map(*key) for key in ((6, 1, 2), (7, 1, 2), (8, 1, 2))}
    assert all(1000 < m.nbytes < 1500 for m in maps.values())
    built = []
    monkeypatch.setattr(solver, "_sym_map", lambda *key: built.append(key) or maps[key])
    for k in (6, 7, 6, 8):
        assert solver.constraint_map(k, 1, 2) is maps[(k, 1, 2)]
    assert built == [(6, 1, 2), (7, 1, 2), (8, 1, 2)]
    # 6 was used after 7, so 7 goes first
    assert list(solver._MAPS) == [(6, 1, 2), (8, 1, 2)]
    assert solver.constraint_map(6, 1, 2) is maps[(6, 1, 2)]
    assert solver.constraint_map(8, 1, 2) is maps[(8, 1, 2)]
    assert len(built) == 3
    assert solver.constraint_map(7, 1, 2) is maps[(7, 1, 2)]
    assert built[3:] == [(7, 1, 2)] and list(solver._MAPS) == [(8, 1, 2), (7, 1, 2)]


def test_a_map_above_the_cache_bound_stays_as_the_newest(monkeypatch):
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    monkeypatch.setattr(solver, "_MAP_CACHE_BYTES", 3000)
    built = []
    build = solver._sym_map
    monkeypatch.setattr(solver, "_sym_map", lambda *key: built.append(key) or build(*key))
    solver.constraint_map(6, 1, 2)
    rho = product_state()
    first, second = solve_symmetric(rho, 3), solve_symmetric(rho, 3)
    big = solver._MAPS[(3, 2, 2)]
    assert big.nbytes > 3000
    # the older map goes, the oversized one stays and is built once
    assert list(solver._MAPS) == [(3, 2, 2)] and built == [(6, 1, 2), (3, 2, 2)]
    assert solver.constraint_map(3, 2, 2) is big
    assert first.status == second.status == FEASIBLE


def test_block_cap_planted_state_is_feasible():
    k, dA = 64, 4
    rho, _ = gen_random_extendible(k, dA, 3)
    report = solve_symmetric(rho, k)
    assert report.status == FEASIBLE
    assert np.linalg.norm(marginal_from_blocks(report.certificate).matrix - rho.matrix) <= 1e-8
    cmap = solver._MAPS[(k, dA, 2)]
    assert cmap.n == dA * (k + 1)
    assert cmap.nbytes < 2 * 2**20


def test_oversized_map_is_refused_before_it_is_built(monkeypatch):
    # the dA = 2, dB = 8 pair map takes 3.8 MiB dense, over a 1 MiB bound
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    monkeypatch.setattr(caps, "DENSE_BYTES_LIMIT", 2**20)
    rho = DensityMatrix(np.eye(16) / 16, (2, 8))
    with pytest.raises(ValueError, match=r"needs 3\.8 MiB, above the 1 MiB limit"):
        solve_bosonic_k2_generic(rho)
    assert (2, 2, 8) not in solver._MAPS
    # smaller shapes are still built
    assert solve_bosonic_k2_generic(DensityMatrix(np.eye(6) / 6, (2, 3))).status == FEASIBLE


def test_a_block_above_the_dense_limit_is_refused_before_its_map(monkeypatch):
    # a DR iteration holds about seven n x n blocks, so the block is charged
    # eight times its bytes: at dA = dB = 3, n = 3 C(k + 2, 2) passes to k = 42
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    rho = DensityMatrix(np.eye(9) / 9, (3, 3))
    with pytest.raises(ValueError, match=r"^the 2970 x 2970 block of A tensor Sym\^43\(C\^3\) needs 1076\.8 MiB, above"):
        solve_bosonic(rho, 43)
    assert not solver._MAPS
    with pytest.raises(ValueError, match=r"^k=65 outside 1\.\.64$"):
        solve_bosonic(rho, 65)


def _count_factorizations(monkeypatch) -> dict:
    # the seam's functions by the names symext.solver and symext.linalg bind,
    # counted as "cholesky", "eigh" and "eigvalsh"; a call of numpy.linalg's
    # own wrapper counts as "np.linalg.<name>", so an exact dict rules it out
    calls = {}

    def counting(key, real):
        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)

        return counted

    for key, name in (("cholesky", "is_positive_definite"), ("eigh", "eigh"), ("eigvalsh", "eigvalsh")):
        real = getattr(linalg, name)
        for module in (solver, linalg):
            monkeypatch.setattr(module, name, counting(key, real))
        monkeypatch.setattr(np.linalg, key, counting(f"np.linalg.{key}", getattr(np.linalg, key)))
    return calls


def _count_hermitian_parts(monkeypatch) -> list:
    calls = []
    for module in ("linalg", "blocks"):
        monkeypatch.setattr(f"symext.{module}.hermitian_part", lambda *a: calls.append(a) or hermitian_part(*a))
    return calls


def _count_map_products(monkeypatch) -> list:
    products = []
    real_times = solver._real_times
    monkeypatch.setattr(solver, "_real_times", lambda a, z: products.append(a.shape) or real_times(a, z))
    return products


# the (k, dA) shapes of the planted benchmark workload
_PLANTED_SHAPES = ((2, 2), (4, 2), (8, 2), (10, 2), (3, 3), (6, 3), (2, 4), (4, 4))


def test_a_decided_planted_instance_needs_no_eigendecomposition(monkeypatch):
    # the least-norm point passes its one Cholesky test, the certificate is
    # PSD by construction and assembled without a check, and the conversion
    # reads cached scales and checks no Hermitian part; three map products:
    # two for the least-norm point and one for its residual
    for k, dA in _PLANTED_SHAPES:
        for profile in ("all", PROFILE_EXCLUDE_BOSONIC):
            case = (k, dA, profile)
            rho, _ = gen_random_extendible(k, dA, seed=3, profile=profile)
            # builds the map, whose Gram pseudo-inverse is an eigh, and fills the scale cache
            sym_to_bos(solve_symmetric(rho, k).certificate)
            calls = _count_factorizations(monkeypatch)
            hermitian = _count_hermitian_parts(monkeypatch)
            products = _count_map_products(monkeypatch)
            report = solve_symmetric(rho, k)
            assert len(hermitian) == 0, case
            bos = sym_to_bos(report.certificate)
            assert len(hermitian) == 0, case
            assert (report.status, report.iterations) == (FEASIBLE, 1), case
            assert calls == {"cholesky": 1}, case
            assert len(products) == 3, case
            monkeypatch.undo()
            assert verify_extension(bos, rho, k, tol=1e-7).bosonic_ok, case


def _assert_certificate_passes_the_checks_it_skips(report, k):
    # the checked constructors accept the certificate and keep its block bit
    # for bit; the block is read-only and its trace within the residual bound
    assert report.status == FEASIBLE
    cert = report.certificate
    assert type(cert) is BosonicState
    ((lam, block),) = cert.blocks.items()
    assert lam == YoungDiagram(k, 0) and not block.flags.writeable
    checked = BlockState(k, cert.dA, cert.blocks)
    assert checked.blocks[lam].tobytes() == block.tobytes()
    assert BosonicState(cert.dA, k, block).matrix.tobytes() == block.tobytes()
    assert abs(cert.weighted_trace - 1.0) <= 1e-8 + 64 * np.finfo(float).eps


def test_a_certificate_passes_every_check_it_skips():
    # planted states and the feasible Werner grid are decided at iteration 1,
    # on the Cholesky path
    for k in (1, 2, 3, 8, 64):
        for dA in (1, 2, 3, 4):
            rho, _ = gen_random_extendible(k, dA, seed=k + dA)
            _assert_certificate_passes_the_checks_it_skips(solve_symmetric(rho, k), k)
    for k in range(2, 17):
        for off in (-0.05, -0.005, -0.002):
            _assert_certificate_passes_the_checks_it_skips(solve_symmetric(_werner((k + 2) / (3 * k) + off), k), k)
    # pure products at k = 3 need DR steps: the certificate is an eigenvalue clip
    states = _pure_products()
    for i in range(5):
        report = solve_symmetric(states[3, i], 3)
        assert report.iterations > 1, i
        _assert_certificate_passes_the_checks_it_skips(report, 3)


def test_an_infeasible_instance_still_runs_the_loop_and_the_witness(monkeypatch):
    # certified at iteration 1 with five map products and no step: two for the
    # least-norm point, which fails its Cholesky test, one for the residual r of
    # its cone shadow, one for the witness G r and one for A^T of it; these
    # are the INFEASIBLE points of the werner workload
    for k in range(2, 6):
        for off in (0.05, 0.005):
            rho = _werner((k + 2) / (3 * k) + off)
            solve_symmetric(rho, k)
            calls = _count_factorizations(monkeypatch)
            products = _count_map_products(monkeypatch)
            report = solve_symmetric(rho, k)
            assert (report.status, report.iterations) == (INFEASIBLE, 1), (k, off)
            assert calls == {"cholesky": 1, "eigh": 1, "eigvalsh": 1}, (k, off)
            assert len(products) == 5, (k, off)
            monkeypatch.undo()


def _werner_singlet_and_qutrit():
    for k in range(2, 9):
        for off in (0.05, 0.005, 0.002, 1e-3, 1e-4):
            yield _werner((k + 2) / (3 * k) + off), k
    for k in (2, 3):
        yield singlet_state(), k
    yield qutrit_counterexample()[0], 2


def test_witness_multiplier_is_the_pseudo_inverse_image_of_the_residual():
    # one DR step by hand from the least-norm point x0: the multiplier
    # G A (x0 - x1) of the displacement equals G (A y - b) for the cone shadow
    # y, since A P_aff(z) = Pi b for every z and G Pi = G
    for rho, k in _werner_singlet_and_qutrit():
        dA, dB = rho.dims
        cmap = solver.constraint_map(k, dA, dB)
        a, g, cols = cmap.amap, cmap.gram_pinv, cmap.cols
        b = np.concatenate([rho.matrix.reshape(-1), [1.0]])

        def affine_project(z):
            flat = z.reshape(-1).copy()
            flat[cols] -= a.T @ (g @ (a @ flat[cols] - b))
            return flat.reshape(z.shape)

        x0 = affine_project(np.zeros((cmap.n, cmap.n), dtype=complex))
        y = solver._cone_project(x0)
        x1 = x0 + affine_project(2.0 * y - x0) - y
        step = g @ (a @ (x0 - x1).reshape(-1)[cols])
        residual = g @ (a @ y.reshape(-1)[cols] - b)
        # the hand step's difference x0 - x1 of two blocks of norm about ||y||
        # is rounded to about eps ||y||, which near the threshold (offset 1e-4)
        # is above 1e-12 of the residual
        floor = 64 * np.finfo(float).eps * np.linalg.norm(y)
        assert np.linalg.norm(step - residual) <= 1e-12 * np.linalg.norm(residual) + floor, (k, rho.dims)

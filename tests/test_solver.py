from math import sqrt

import numpy as np
import pytest

from conftest import product_state, singlet_state
from symext import solver
from symext.blocks import PROFILE_EXCLUDE_BOSONIC, gen_random_extendible, marginal_from_blocks, raw_marginal_from_blocks
from symext.convert import verify_extension
from symext.linalg import DensityMatrix, partial_trace
from symext.solver import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    SolverConfig,
    qutrit_counterexample,
    solve_bosonic,
    solve_bosonic_k2_generic,
    solve_symmetric,
    sym2_isometry,
)
from symext.young import YoungDiagram, hook_dim, list_diagrams


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_feasible=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_infeasible_gap=-1e-9)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_product_state_always_extendible(k):
    rho = product_state()
    report = solve_symmetric(rho, k)
    assert report.status == FEASIBLE
    assert report.residual <= 1e-8
    assert report.certificate is not None
    check = verify_extension(report.certificate, rho, k, tol=1e-7)
    assert check.symmetric_ok


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
        assert not witness.block(YoungDiagram(k, 0)).any()
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


def test_undecided_on_iteration_starvation():
    cfg = SolverConfig(max_iter=10)
    report = solve_symmetric(singlet_state(), 2, cfg)
    assert report.status == UNDECIDED
    assert report.certificate is None
    assert report.iterations == 10


def test_rejects_non_qubit_b_side():
    rho = DensityMatrix(np.eye(6) / 6, (2, 3))
    with pytest.raises(ValueError, match="generic pair solver"):
        solve_symmetric(rho, 2)


def test_rejects_bad_k():
    with pytest.raises(ValueError, match="at least 1"):
        solve_symmetric(product_state(), 0)


def test_sym2_isometry_shape_and_range():
    for d in (2, 3):
        v = sym2_isometry(d)
        assert v.shape == (d * d, d * (d + 1) // 2)
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-14)
        # range is swap invariant
        swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
        assert np.allclose(swap @ v, v, atol=1e-14)


def test_generic_pair_solver_agrees_on_qubits():
    rho = product_state()
    generic = solve_bosonic_k2_generic(rho, 2)
    assert generic.status == FEASIBLE
    assert solve_bosonic(rho, 2).status == FEASIBLE
    assert generic.certificate is not None
    # certificate embeds to a valid two-leg extension
    lift = np.kron(np.eye(2), sym2_isometry(2))
    full = lift @ generic.certificate.matrix @ lift.T
    sigma = DensityMatrix(full, (2, 2, 2), check_psd=False)
    assert verify_extension(sigma, rho, 2, tol=1e-7).symmetric_ok

    assert solve_bosonic_k2_generic(singlet_state(), 2).status == INFEASIBLE


def test_generic_pair_solver_layout_check():
    with pytest.raises(ValueError, match="does not match"):
        solve_bosonic_k2_generic(product_state(), 3)


def test_antisymmetric_qutrit_marginal_not_bosonic_extendible():
    # swap-invariant two-leg extension exists by construction, yet no bosonic
    # one does once the amplitudes are pairwise distinct
    marg, full, ket = qutrit_counterexample()
    assert abs(np.linalg.norm(ket) - 1.0) < 1e-12
    check = verify_extension(full, marg, 2, tol=1e-8)
    assert check.symmetric_ok and not check.support_ok
    report = solve_bosonic_k2_generic(marg, 3)
    assert report.status == INFEASIBLE
    assert report.gap_estimate >= 1e-4


def test_equal_amplitude_qutrit_status_is_reported_not_asserted():
    # with equal amplitudes the analytic obstruction degenerates to zero, so
    # the numerics may land either way; only require a well-formed report
    marg, _, _ = qutrit_counterexample((1.0, 1.0, 1.0))
    report = solve_bosonic_k2_generic(marg, 3)
    assert report.status in (FEASIBLE, INFEASIBLE, UNDECIDED)
    if report.status == FEASIBLE:
        assert report.certificate is not None


def test_reports_echo_configuration_limits():
    report = solve_symmetric(product_state(), 3)
    assert list_diagrams(3) == sorted(report.certificate.blocks, key=lambda d: -d.lambda1)


def _reference_herm_to_vec(h):
    iu = np.triu_indices(h.shape[0], 1)
    s = sqrt(2.0)
    return np.concatenate([np.real(np.diag(h)), s * np.real(h[iu]), s * np.imag(h[iu])])


def _reference_vec_to_herm(v, n):
    iu = np.triu_indices(n, 1)
    m = n * (n - 1) // 2
    h = np.zeros((n, n), dtype=complex)
    h[np.diag_indices(n)] = v[:n]
    upper = (v[n : n + m] + 1j * v[n + m :]) / sqrt(2.0)
    h[iu] = upper
    h[(iu[1], iu[0])] = upper.conj()
    return h


@pytest.mark.parametrize("n", range(1, 13))
def test_hermitian_coordinates_match_reference_bit_for_bit(n):
    gen = np.random.default_rng(n)
    v = gen.standard_normal(n * n)
    v[::3] = 0.0
    h = solver._vec_to_herm(v, n)
    assert h.tobytes() == _reference_vec_to_herm(v, n).tobytes()
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    assert solver._herm_to_vec(g).tobytes() == _reference_herm_to_vec(g).tobytes()
    assert solver._herm_to_vec(h).tobytes() == _reference_herm_to_vec(h).tobytes()


def _column_map(k, dA, diagrams):
    """The dense sector constraint map, one raw_marginal_from_blocks call per coordinate."""
    sizes = [dA * lam.num_weights for lam in diagrams]
    cols = np.zeros((4 * dA * dA + 1, sum(n * n for n in sizes)))
    at = 0
    for lam, n in zip(diagrams, sizes):
        for t in range(n * n):
            unit = np.zeros(n * n)
            unit[t] = 1.0
            h = _reference_vec_to_herm(unit, n)
            cols[:-1, at + t] = _reference_herm_to_vec(raw_marginal_from_blocks(k, dA, [(lam, h)]))
            cols[-1, at + t] = hook_dim(lam) * float(h.trace().real)
        at += n * n
    return cols


def _dense(cmap):
    full = np.zeros((cmap.amap.shape[0], cmap.space.dim))
    full[:, cmap.cols] = cmap.amap
    return full


@pytest.mark.parametrize("dA", [1, 2, 3, 4])
def test_sector_map_equals_column_by_column_map(dA):
    for k in range(1, 11):
        diagrams = list_diagrams(k)
        reference = _column_map(k, dA, diagrams)
        assert np.array_equal(_dense(solver._sector_map(k, dA, tuple(diagrams))), reference), (k, dA)
        # the top sector's coordinates come first
        top = _dense(solver._sector_map(k, dA, tuple(diagrams[:1])))
        assert np.array_equal(top, reference[:, : top.shape[1]]), (k, dA)


@pytest.mark.parametrize("dA,dB", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_pair_map_matches_embedding_loop(dA, dB):
    nsym = dB * (dB + 1) // 2
    n = dA * nsym
    lift = np.kron(np.eye(dA), sym2_isometry(dB))
    reference = np.zeros(((dA * dB) ** 2 + 1, n * n))
    for t in range(n * n):
        unit = np.zeros(n * n)
        unit[t] = 1.0
        h = _reference_vec_to_herm(unit, n)
        reference[:-1, t] = _reference_herm_to_vec(partial_trace(lift @ h @ lift.T, (dA, dB, dB), (0, 1)))
        reference[-1, t] = float(h.trace().real)
    # the sums run in another order, so allow a few units in the last place
    assert np.allclose(_dense(solver._pair_map(dA, dB)), reference, rtol=0, atol=1e-15)


def test_constraint_map_is_cached_per_shape(monkeypatch):
    monkeypatch.setattr(solver, "_MAPS", solver._MapCache(solver._MAP_CACHE_BYTES))
    built = []
    build = solver._sector_map
    monkeypatch.setattr(solver, "_sector_map", lambda *key: built.append(key) or build(*key))
    first, _ = gen_random_extendible(5, 2, 21)
    second, _ = gen_random_extendible(5, 2, 22, PROFILE_EXCLUDE_BOSONIC)
    cold = solve_symmetric(second, 5)
    solve_symmetric(first, 5)
    warm = solve_symmetric(second, 5)
    assert len(built) == 1

    cmap = solver._MAPS.get(("sectors", 5, 2, tuple(list_diagrams(5))), pytest.fail)
    for a in (cmap.cols, cmap.amap, cmap.gram_pinv):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        cmap.amap[0, 0] = 1.0

    assert (warm.status, warm.residual, warm.gap_estimate, warm.iterations) == (
        cold.status, cold.residual, cold.gap_estimate, cold.iterations)
    assert warm.certificate.blocks.keys() == cold.certificate.blocks.keys()
    for lam, x in cold.certificate.blocks.items():
        assert np.array_equal(warm.certificate.blocks[lam], x)


def test_cache_bound_evicts_least_recently_used():
    cache = solver._MapCache(max_bytes=3000)
    maps = {key: solver._sector_map(key, 1, tuple(list_diagrams(key)[:1])) for key in (6, 7, 8)}
    assert all(1000 < m.nbytes < 1500 for m in maps.values())
    for key in (6, 7, 6, 8):
        assert cache.get(key, lambda key=key: maps[key]) is maps[key]
    # 6 was used after 7, so 7 goes first
    assert cache.get(6, pytest.fail) is maps[6]
    assert cache.get(8, pytest.fail) is maps[8]
    with pytest.raises(pytest.fail.Exception):
        cache.get(7, pytest.fail)


def test_block_cap_planted_state_is_feasible():
    k, dA = 64, 4
    rho, _ = gen_random_extendible(k, dA, 3)
    for solve in (solve_symmetric, solve_bosonic):
        report = solve(rho, k)
        assert report.status == FEASIBLE
        assert np.linalg.norm(marginal_from_blocks(report.certificate).matrix - rho.matrix) <= 1e-8
    cmap = solver._MAPS.get(("sectors", k, dA, tuple(list_diagrams(k))), pytest.fail)
    assert cmap.nbytes < 32 * 2**20

import itertools

import numpy as np
import pytest

from conftest import adjacent_transposition, dicke, permutation_operator
from symext.linalg import partial_trace
from symext.schur import (
    alpha_coeff,
    build_schur_basis,
    coeff_matrix_P,
    diag_coeffs,
    p_coeff,
    sym_isometry,
    xi_vector,
)
from symext.young import YoungDiagram, hook_dim, list_diagrams


def test_basis_orthonormal_small():
    # every sector side by side is one square matrix: a unitary
    for k in range(1, 11):
        basis = build_schur_basis(k)
        for lam in list_diagrams(k):
            # one coupling path per standard tableau
            assert basis.sector(lam).shape == (2**k, hook_dim(lam), lam.num_weights)
        b = np.concatenate([basis.sector(lam).reshape(2**k, -1) for lam in list_diagrams(k)], axis=1)
        assert b.shape == (2**k, 2**k)
        assert np.abs(b.conj().T @ b - np.eye(2**k)).max() <= 1e-12


def test_sector_paths_follow_the_coupling_in_lexicographic_order():
    # the path of a basis vector is read off the vector itself: the spin j_t
    # of its first t qubits, from their Casimir J^2 = 3t/4 - t(t-1)/4 plus the
    # sum of the swaps among them, which has the vector as an eigenvector
    for k in range(1, 8):
        basis = build_schur_basis(k)
        swaps, casimirs = np.zeros((2**k, 2**k)), []
        for t in range(1, k + 1):
            for a in range(t - 1):
                perm = list(range(k))
                perm[a], perm[t - 1] = t - 1, a
                swaps = swaps + permutation_operator(k, perm)
            casimirs.append(swaps + (3 * t - t * (t - 1)) / 4 * np.eye(2**k))
        for lam in list_diagrams(k):
            sec = basis.sector(lam)
            paths = []
            for mu in range(sec.shape[1]):
                v = sec[:, mu, 0]
                path = []
                for c in casimirs:
                    value = float(v @ c @ v)
                    assert np.abs(c @ v - value * v).max() <= 1e-12
                    path.append(round(np.sqrt(1 + 4 * value) - 1) / 2)
                paths.append(tuple(path))
            assert len(paths) == hook_dim(lam) and paths == sorted(set(paths)), (k, lam)
            for path in paths:
                # each step couples one more spin-1/2
                assert path[0] == 0.5 and path[-1] == lam.spin
                assert all(abs(a - b) == 0.5 for a, b in zip(path, path[1:]))


def test_singlet_sector_is_the_singlet():
    basis = build_schur_basis(2)
    v = basis.sector(YoungDiagram(1, 1))[:, 0, 0]
    target = np.array([0, 1, -1, 0]) / np.sqrt(2)
    overlap = abs(np.vdot(target, v))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_top_sector_equals_dicke():
    for k in (1, 2, 3, 5):
        basis = build_schur_basis(k)
        lam = YoungDiagram(k, 0)
        for wi, omega in enumerate(lam.weights()):
            v = basis.sector(lam)[:, 0, wi]
            d = dicke(k, omega)
            assert abs(abs(np.vdot(d, v)) - 1.0) <= 1e-12
            # the builder fixes phases so these are equal, not just parallel
            assert np.abs(v - d).max() <= 1e-12


def test_dicke_states_explicit():
    assert np.allclose(dicke(2, 0.0), np.array([0, 1, 1, 0]) / np.sqrt(2))
    assert np.allclose(dicke(3, -1.5), np.eye(8)[0])
    assert np.allclose(dicke(3, -0.5), (np.eye(8)[1] + np.eye(8)[2] + np.eye(8)[4]) / np.sqrt(3))
    iso = sym_isometry(3, 2)
    assert iso.shape == (8, 4)
    assert np.allclose(iso.conj().T @ iso, np.eye(4))


def test_section3_spans():
    e = np.eye(8)
    psi_a = np.column_stack([(2 * e[1] - e[2] - e[4]) / np.sqrt(6), (e[2] - e[4]) / np.sqrt(2)])
    psi_b = np.column_stack([(2 * e[6] - e[5] - e[3]) / np.sqrt(6), (e[5] - e[3]) / np.sqrt(2)])
    basis = build_schur_basis(3)
    sec = basis.sector(YoungDiagram(2, 1))
    for wi, ext in ((0, psi_a), (1, psi_b)):
        mine = sec[:, :, wi]
        assert np.abs(mine @ mine.conj().T - ext @ ext.conj().T).max() <= 1e-12


def test_permutations_block_diagonal_and_weight_independent():
    for k in range(1, 11):
        basis = build_schur_basis(k)
        for t in range(k - 1):
            op = permutation_operator(k, adjacent_transposition(k, t))
            # no mixing between different sectors: op maps each sector's span into itself
            for lam in list_diagrams(k):
                flat = basis.sector(lam).reshape(2**k, -1)
                image = op @ flat
                assert np.abs(image - flat @ (flat.conj().T @ image)).max() <= 1e-12
            # within a sector: block diagonal in weight, identical across weights
            for lam in list_diagrams(k):
                sec = basis.sector(lam)
                npath, nw = sec.shape[1], sec.shape[2]
                flat = sec.reshape(2**k, npath * nw)
                rep = (flat.conj().T @ op @ flat).reshape(npath, nw, npath, nw)
                for wi in range(nw):
                    for wj in range(nw):
                        if wi != wj:
                            assert np.abs(rep[:, wi, :, wj]).max() <= 1e-12
                for wi in range(1, nw):
                    assert np.abs(rep[:, wi, :, wi] - rep[:, 0, :, 0]).max() <= 1e-12


def brute_force_jplus(k):
    """Raising operator as an explicit matrix in the computational basis."""
    dim = 2**k
    out = np.zeros((dim, dim))
    for idx in range(dim):
        for leg in range(k):
            bit = 1 << (k - 1 - leg)
            if not idx & bit:
                out[idx | bit, idx] += 1.0
    return out


def test_jplus_ladder_action():
    for k in range(1, 11):
        basis = build_schur_basis(k)
        jp = brute_force_jplus(k)
        for lam in list_diagrams(k):
            ws = lam.weights()
            j = lam.spin
            sec = basis.sector(lam)
            for mu in range(hook_dim(lam)):
                for wi, omega in enumerate(ws):
                    got = jp @ sec[:, mu, wi]
                    coeff = np.sqrt((j - omega) * (j + omega + 1))
                    if wi + 1 < len(ws):
                        want = coeff * sec[:, mu, wi + 1]
                        assert np.abs(got - want).max() <= 1e-12
                    else:
                        assert np.linalg.norm(got) <= 1e-12


def test_diag_coeffs_values_and_normalization():
    assert diag_coeffs(3, -0.5) == pytest.approx((2 / 3, 1 / 3))
    assert diag_coeffs(3, 1.5) == pytest.approx((0.0, 1.0))
    for k in (1, 2, 5, 9):
        for omega in np.arange(-k / 2, k / 2 + 1):
            t0, t1 = diag_coeffs(k, omega)
            assert t0 + t1 == pytest.approx(1.0)
            if abs(omega) < k / 2:
                assert t0 / t1 == pytest.approx((k - 2 * omega) / (k + 2 * omega))


def test_alpha_known_values():
    assert alpha_coeff(YoungDiagram(3, 0), -0.5, 0.5) == pytest.approx(2 / 3)
    assert alpha_coeff(YoungDiagram(2, 1), -0.5, 0.5) == pytest.approx(1 / 3)
    assert alpha_coeff(YoungDiagram(2, 0), -1.0, 0.0) == pytest.approx(np.sqrt(2) / 2)
    # only adjacent ascending weight pairs couple
    assert alpha_coeff(YoungDiagram(3, 0), -0.5, 1.5) == 0.0
    assert alpha_coeff(YoungDiagram(3, 0), 0.5, -0.5) == 0.0


def brute_force_pair_marginal(basis, lam, wi, wj):
    k = basis.k
    sec = basis.sector(lam)
    v, w = sec[:, :, wi], sec[:, :, wj]
    return partial_trace(v @ w.conj().T / hook_dim(lam), [2] * k, [0])


def test_marginal_coefficients_against_brute_force():
    for k in range(1, 9):
        basis = build_schur_basis(k)
        for lam in list_diagrams(k):
            ws = lam.weights()
            for wi, omega in enumerate(ws):
                m = brute_force_pair_marginal(basis, lam, wi, wi)
                t0, t1 = diag_coeffs(k, omega)
                assert np.abs(m - np.diag([t0, t1])).max() <= 1e-12
                if wi + 1 < len(ws):
                    c = brute_force_pair_marginal(basis, lam, wi, wi + 1)
                    expect = np.zeros((2, 2))
                    expect[0, 1] = alpha_coeff(lam, omega, omega + 1)
                    assert np.abs(c - expect).max() <= 1e-12


def test_p_coeff_identity_and_examples():
    lam = YoungDiagram(2, 1)
    assert p_coeff(lam, -0.5, -0.5) == 1.0
    assert p_coeff(lam, -0.5, 0.5) == pytest.approx(0.5)
    # ratio form: p * alpha_top = alpha_lambda on adjacent pairs
    for k in (2, 3, 4, 6, 9):
        top = YoungDiagram(k, 0)
        for lam in list_diagrams(k):
            for omega in lam.weights()[:-1]:
                lhs = p_coeff(lam, omega, omega + 1) * alpha_coeff(top, omega, omega + 1)
                assert lhs == pytest.approx(alpha_coeff(lam, omega, omega + 1), abs=1e-13)


def test_xi_vector_reproduces_adjacent_ratios():
    for k in (3, 5, 8):
        for lam in list_diagrams(k):
            if lam.num_weights < 2:
                continue
            xi = xi_vector(lam)
            assert xi.shape == (lam.num_weights,)
            assert np.all(np.abs(xi) <= 1.0 + 1e-12)
            ws = lam.weights()
            for wi in range(len(ws) - 1):
                assert xi[wi] * xi[wi + 1] == pytest.approx(p_coeff(lam, ws[wi], ws[wi + 1]), abs=1e-12)


def test_coeff_matrix_psd_unit_diagonal():
    for k in range(1, 11):
        for lam in list_diagrams(k):
            p = coeff_matrix_P(lam)
            nw = lam.num_weights
            assert p.shape == (nw, nw)
            assert np.allclose(np.diag(p), 1.0)
            assert np.allclose(p, p.T)
            eigs = np.linalg.eigvalsh(p)
            assert eigs.min() >= -1e-10
            # adjacent entries are exactly the pair couplings
            ws = lam.weights()
            for wi in range(nw - 1):
                assert p[wi, wi + 1] == pytest.approx(p_coeff(lam, ws[wi], ws[wi + 1]), abs=1e-12)


def test_coeff_matrix_example_three_copies():
    p = coeff_matrix_P(YoungDiagram(2, 1))
    assert np.allclose(p, [[1.0, 0.5], [0.5, 1.0]])
    assert np.linalg.eigvalsh(p).min() == pytest.approx(0.5)


def test_top_sector_coeff_matrix_is_all_ones():
    for k in (2, 4, 7):
        p = coeff_matrix_P(YoungDiagram(k, 0))
        assert np.abs(p - 1.0).max() <= 1e-12


def test_build_rejects_bad_k():
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        build_schur_basis(0)
    for k in (2.0, True):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            build_schur_basis(k)
    # charged 3 * 8 * 4^k bytes: 1.5 GiB at k = 13, above the 1 GiB bound, refused before it is built
    with pytest.raises(ValueError, match=r"^the Schur basis of k=13 needs 1536\.0 MiB, above the 1024 MiB limit$"):
        build_schur_basis(13)
    assert build_schur_basis(np.int64(3)).k == 3


def test_sym2_isometry_shape_and_range():
    for d in (2, 3):
        v = sym_isometry(2, d)
        assert v.shape == (d * d, d * (d + 1) // 2)
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-14)
        # range is swap invariant
        swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
        assert np.allclose(swap @ v, v, atol=1e-14)
    # for qubits the pairs (0,0), (0,1), (1,1) are the weight slots
    assert np.array_equal(sym_isometry(2, 2), np.stack([dicke(2, w) for w in (-1, 0, 1)], axis=1))


def test_sym_isometry_equals_the_dicke_and_pair_bases():
    # qubit legs: the Dicke vectors, weight ascending, entry for entry
    for k in range(1, 9):
        dicke_cols = np.stack([dicke(k, -k / 2 + s) for s in range(k + 1)], axis=1)
        assert np.array_equal(sym_isometry(k, 2), dicke_cols)
    # two legs: |ij> + |ji> over sqrt 2 for the pairs i < j, |ii> on the diagonal
    for d in range(2, 7):
        pairs = list(itertools.combinations_with_replacement(range(d), 2))
        want = np.zeros((d * d, len(pairs)))
        for s, (i, j) in enumerate(pairs):
            want[[i * d + j, j * d + i], s] = 1.0 if i == j else 1 / np.sqrt(2.0)
        assert np.array_equal(sym_isometry(2, d), want)


@pytest.mark.parametrize("k,d", [(3, 3), (4, 3), (3, 4), (12, 2)])
def test_sym_isometry_spans_the_symmetric_subspace(k, d):
    v = sym_isometry(k, d)
    nsym = len(list(itertools.combinations_with_replacement(range(d), k)))
    assert v.shape == (d**k, nsym)
    assert np.allclose(v.T @ v, np.eye(nsym), atol=1e-14)
    # every adjacent transposition fixes each column, so the range lies in
    # Sym^k, and it has the dimension of Sym^k, so it is all of it
    for t in range(k - 1):
        swapped = v.reshape((d,) * k + (nsym,)).swapaxes(t, t + 1).reshape(v.shape)
        assert np.array_equal(swapped, v)

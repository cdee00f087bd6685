import hashlib
import itertools
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from conftest import adjacent_transposition, dicke, permutation_operator
from symext.linalg import partial_trace
from symext.schur import build_schur_basis, sector_tables, sym_isometry
from symext.young import YoungDiagram, hook_dim, list_diagrams


def test_basis_orthonormal_small():
    # every sector side by side is one square matrix: a unitary
    for k in range(1, 11):
        basis = build_schur_basis(k)
        for lam in list_diagrams(k):
            # one coupling path per standard tableau
            assert basis[lam].shape == (2**k, hook_dim(lam), lam.num_weights)
        b = np.concatenate([basis[lam].reshape(2**k, -1) for lam in list_diagrams(k)], axis=1)
        assert b.shape == (2**k, 2**k)
        assert np.abs(b.conj().T @ b - np.eye(2**k)).max() <= 1e-12


def test_basis_is_a_read_only_mapping_in_diagram_order():
    # list_diagrams order keeps every sum over the sectors in one order
    basis = build_schur_basis(4)
    assert list(basis) == list_diagrams(4)
    with pytest.raises(TypeError):
        basis[YoungDiagram(4, 0)] = np.zeros((16, 1, 5))
    for sec in basis.values():
        with pytest.raises(ValueError, match="read-only"):
            sec[0, 0, 0] = 1.0


def test_basis_bytes_are_pinned():
    # every sector's shape and bytes for k = 1..10: a rewrite of the builder
    # must reproduce them bit for bit, and with them every glued state
    digest = hashlib.sha256()
    for k in range(1, 11):
        for lam, sec in build_schur_basis(k).items():
            digest.update(f"{k} [{lam.lambda1},{lam.lambda2}] {sec.shape} {sec.dtype.str}".encode())
            digest.update(sec.tobytes())
    assert digest.hexdigest() == "9d6c26f606fc4eb0b26e703718b1d106676691d2add90189cc6007d9064e5e53"


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
            sec = basis[lam]
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
    v = basis[YoungDiagram(1, 1)][:, 0, 0]
    target = np.array([0, 1, -1, 0]) / np.sqrt(2)
    overlap = abs(np.vdot(target, v))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_top_sector_equals_dicke():
    for k in (1, 2, 3, 5):
        basis = build_schur_basis(k)
        lam = YoungDiagram(k, 0)
        for wi, omega in enumerate(lam.weights()):
            v = basis[lam][:, 0, wi]
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
    sec = basis[YoungDiagram(2, 1)]
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
                flat = basis[lam].reshape(2**k, -1)
                image = op @ flat
                assert np.abs(image - flat @ (flat.conj().T @ image)).max() <= 1e-12
            # within a sector: block diagonal in weight, identical across weights
            for lam in list_diagrams(k):
                sec = basis[lam]
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
            sec = basis[lam]
            for mu in range(hook_dim(lam)):
                for wi, omega in enumerate(ws):
                    got = jp @ sec[:, mu, wi]
                    coeff = np.sqrt((j - omega) * (j + omega + 1))
                    if wi + 1 < len(ws):
                        want = coeff * sec[:, mu, wi + 1]
                        assert np.abs(got - want).max() <= 1e-12
                    else:
                        assert np.linalg.norm(got) <= 1e-12


def coeffs(lam):
    """The tables of a sector over its tableau count: t0, t1, alpha and P."""
    d = hook_dim(lam)
    return tuple(a / d for a in sector_tables(lam))


def test_diag_coeffs_values_and_normalization():
    t0, t1, _, _ = coeffs(YoungDiagram(2, 1))
    assert (t0[0], t1[0]) == pytest.approx((2 / 3, 1 / 3))
    t0, t1, _, _ = coeffs(YoungDiagram(3, 0))
    assert (t0[3], t1[3]) == pytest.approx((0.0, 1.0))
    for k in (1, 2, 5, 9):
        for lam in list_diagrams(k):
            t0, t1, _, _ = coeffs(lam)
            assert t0 + t1 == pytest.approx(np.ones(lam.num_weights))
            for omega, a, b in zip(lam.weights(), t0, t1):
                if abs(omega) < k / 2:
                    assert a / b == pytest.approx((k - 2 * omega) / (k + 2 * omega))


def test_alpha_known_values():
    # one entry per adjacent ascending weight pair, at the lesser weight
    assert coeffs(YoungDiagram(3, 0))[2][1] == pytest.approx(2 / 3)
    assert coeffs(YoungDiagram(2, 1))[2][0] == pytest.approx(1 / 3)
    assert coeffs(YoungDiagram(2, 0))[2][0] == pytest.approx(np.sqrt(2) / 2)
    for lam in list_diagrams(6):
        assert sector_tables(lam)[2].shape == (lam.num_weights - 1,)


def brute_force_pair_marginal(basis, lam, wi, wj):
    k = lam.k
    sec = basis[lam]
    v, w = sec[:, :, wi], sec[:, :, wj]
    return partial_trace(v @ w.conj().T / hook_dim(lam), [2] * k, [0])


def test_marginal_coefficients_against_brute_force():
    for k in range(1, 9):
        basis = build_schur_basis(k)
        for lam in list_diagrams(k):
            t0, t1, alpha, _ = coeffs(lam)
            for wi in range(lam.num_weights):
                m = brute_force_pair_marginal(basis, lam, wi, wi)
                assert np.abs(m - np.diag([t0[wi], t1[wi]])).max() <= 1e-12
                if wi + 1 < lam.num_weights:
                    c = brute_force_pair_marginal(basis, lam, wi, wi + 1)
                    expect = np.zeros((2, 2))
                    expect[0, 1] = alpha[wi]
                    assert np.abs(c - expect).max() <= 1e-12


def test_p_coeff_identity_and_examples():
    p = coeffs(YoungDiagram(2, 1))[3]
    assert p[0, 0] == 1.0
    assert p[0, 1] == pytest.approx(0.5)
    # ratio form: p * alpha_top = alpha_lambda on adjacent pairs
    for k in (2, 3, 4, 6, 9):
        alpha_top = coeffs(YoungDiagram(k, 0))[2]
        for lam in list_diagrams(k):
            _, _, alpha, p = coeffs(lam)
            lo = lam.lambda2  # weight -j sits at slot lambda2 of the top sector
            for wi in range(lam.num_weights - 1):
                assert p[wi, wi + 1] * alpha_top[lo + wi] == pytest.approx(alpha[wi], abs=1e-13)


def test_xi_vector_reproduces_adjacent_ratios():
    # off its diagonal P is xi xi^T, with every amplitude at most 1: any three
    # weights give xi_a^2 = P_ab P_ac / P_bc
    for k in (3, 5, 8):
        for lam in list_diagrams(k):
            nw = lam.num_weights
            if nw < 3:
                continue
            p = coeffs(lam)[3]
            xi = np.array([np.sqrt(p[a, b] * p[a, c] / p[b, c]) for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))])
            xi = np.concatenate([xi, p[0, 3:] / xi[0]])
            assert np.all(xi <= 1.0 + 1e-12)
            off = ~np.eye(nw, dtype=bool)
            assert np.abs(np.outer(xi, xi) - p)[off].max() <= 1e-12


def test_coeff_matrix_psd_unit_diagonal():
    for k in range(1, 11):
        for lam in list_diagrams(k):
            _, _, alpha, p = coeffs(lam)
            alpha_top = coeffs(YoungDiagram(k, 0))[2]
            nw = lam.num_weights
            assert p.shape == (nw, nw)
            assert np.allclose(np.diag(p), 1.0)
            assert np.allclose(p, p.T)
            eigs = np.linalg.eigvalsh(p)
            assert eigs.min() >= -1e-10
            # adjacent entries are exactly the pair couplings
            for wi in range(nw - 1):
                assert p[wi, wi + 1] == pytest.approx(alpha[wi] / alpha_top[lam.lambda2 + wi], abs=1e-12)


def test_coeff_matrix_example_three_copies():
    p = coeffs(YoungDiagram(2, 1))[3]
    assert np.allclose(p, [[1.0, 0.5], [0.5, 1.0]])
    assert np.linalg.eigvalsh(p).min() == pytest.approx(0.5)


def test_top_sector_coeff_matrix_is_all_ones():
    for k in (2, 4, 7):
        p = coeffs(YoungDiagram(k, 0))[3]
        assert np.abs(p - 1.0).max() <= 1e-12


def reference_tables(lam):
    """sector_tables(lam) computed one weight at a time in Python floats."""
    k, j, nw, d = lam.k, lam.spin, lam.num_weights, hook_dim(lam)
    ws = [-j + i for i in range(nw)]
    c0 = [d * ((k - 2 * w) / (2 * k)) for w in ws]
    c1 = [d * ((k + 2 * w) / (2 * k)) for w in ws]
    ca = [d * (sqrt((j - w) * (j + w + 1)) / k) for w in ws[:-1]]
    p = [sqrt((j - w) * (j + w + 1) / ((k / 2 - w) * (k / 2 + w + 1))) for w in ws[:-1]]
    xi = [1.0] * nw
    if nw > 1:
        a = p.index(max(p))
        xi[a] = xi[a + 1] = sqrt(p[a])
        for i in range(a - 1, -1, -1):
            xi[i] = p[i] / xi[i + 1]
        for i in range(a + 2, nw):
            xi[i] = p[i - 1] / xi[i - 1]
    scale = [[d * (p[min(r, c)] if abs(r - c) == 1 else xi[r] * xi[c] + (1.0 - xi[r] * xi[r]) * (r == c))
              for c in range(nw)] for r in range(nw)]
    return tuple(np.array(t, dtype=float) for t in (c0, c1, ca, scale))


def test_sector_tables_over_the_block_cap():
    # every diagram up to k = 64, against exact rationals where they exist
    for k in range(1, 65):
        for lam in list_diagrams(k):
            tables = sector_tables(lam)
            assert sector_tables(lam) is tables
            for got, want in zip(tables, reference_tables(lam)):
                assert np.array_equal(got, want), lam
            for a in tables:
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 0.0
            d = hook_dim(lam)
            c0, c1, ca, scale = tables
            nw = lam.num_weights
            assert np.abs(c0 + c1 - d).max() <= 4 * np.finfo(float).eps * d
            # (ca / d)^2 = (j - w)(j + w + 1) / k^2 = (2j - i)(i + 1) / k^2 at w = -j + i
            two_j = lam.lambda1 - lam.lambda2
            ratios = [Fraction((two_j - i) * (i + 1), k * k) for i in range(nw - 1)]
            assert np.allclose((ca / d) ** 2, [float(r) for r in ratios], rtol=1e-13, atol=0)
            p = scale / d
            assert np.abs(np.diag(p) - 1.0).max() <= 1e-12
            assert np.array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() >= -1e-12
            # adjacent entries squared: alpha_lambda^2 / alpha_top^2, exactly
            # (2j = k there, and weight -j + i sits at slot lambda2 + i of the top sector)
            top = [Fraction((k - i) * (i + 1), k * k) for i in range(lam.lambda2, lam.lambda2 + nw - 1)]
            want = [float(r / t) for r, t in zip(ratios, top)]
            assert np.allclose(np.diag(p, 1) ** 2, want, rtol=1e-13, atol=0)


def test_build_rejects_bad_k():
    for k in (0, 65):
        with pytest.raises(ValueError, match=f"^k={k} outside 1\\.\\.64$"):
            build_schur_basis(k)
    for k in (2.0, True):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            build_schur_basis(k)
    # charged 3 * 8 * 4^k bytes: 1.5 GiB at k = 13, above the 1 GiB bound, refused before it is built
    with pytest.raises(ValueError, match=r"^the Schur basis of k=13 needs 1536\.0 MiB, above the 1024 MiB limit$"):
        build_schur_basis(13)
    assert list(build_schur_basis(np.int64(3))) == list_diagrams(3)


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

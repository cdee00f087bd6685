import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacent_transposition, naive_partial_trace, permutation_operator, random_density
from symext import solver
from symext.linalg import (
    DensityMatrix,
    eigenvalue_below,
    eigh,
    eigvalsh,
    hermitian_part,
    is_positive_definite,
    partial_trace,
    partial_transpose,
)


def test_herm_deviation_and_check():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    assert np.array_equal(hermitian_part(h, 0.0, "finite", "dev {dev:.3e}"), h)
    # the deviation is the Frobenius norm of the anti-Hermitian part
    bumped = h + np.array([[0, 1e-3], [0, 0]])
    with pytest.raises(ValueError, match=r"^dev 7\.071e-04 within 0\.0007$"):
        hermitian_part(bumped, 7e-4, "finite", "dev {dev:.3e} within {atol:g}")
    # within the tolerance the Hermitian part is (x + x^H) / 2, bit for bit
    gen = np.random.default_rng(5)
    x = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    x = x + x.conj().T + 1e-9 * gen.standard_normal((5, 5))
    assert np.array_equal(hermitian_part(x, 1e-8, "finite", "dev"), (x + x.conj().T) / 2)
    # a non-finite entry picks the first message, whatever the deviation
    for bad in (np.inf, np.nan, complex(0, np.nan)):
        for i, j in ((0, 1), (1, 1)):
            y = h.astype(complex)
            y[i, j] = bad
            with pytest.raises(ValueError, match="^finite$"):
                hermitian_part(y, 1.0, "finite", "dev {dev:.3e}")


def test_density_matrix_refuses_non_finite_entries():
    # a lone non-finite entry; inf at (i, j) and at (j, i), whose difference
    # is NaN; and NaN on the diagonal
    for entries in ({(3, 2): np.nan}, {(3, 2): np.inf}, {(3, 2): complex(0, np.nan)},
                    {(0, 3): np.inf, (3, 0): np.inf}, {(3, 3): np.nan}):
        bad = np.eye(4, dtype=complex) / 4
        for ij, v in entries.items():
            bad[ij] = v
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            DensityMatrix(bad, (2, 2))


@given(seed=st.integers(0, 10_000), dims_idx=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_partial_trace_matches_naive(seed, dims_idx):
    dims = [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)][dims_idx]
    keeps = [[0], [1], [0, 1]] if len(dims) == 2 else [[0], [0, 1], [1, 2], [0, 2]]
    gen = np.random.default_rng(seed)
    total = int(np.prod(dims))
    m = gen.normal(size=(total, total)) + 1j * gen.normal(size=(total, total))
    for keep in keeps:
        got = partial_trace(m, dims, keep)
        want = naive_partial_trace(m, dims, keep)
        assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_keeps_original_order():
    gen = np.random.default_rng(3)
    a = random_density(2, gen)
    b = random_density(3, gen)
    c = random_density(2, gen)
    m = np.kron(np.kron(a, b), c)
    assert np.allclose(partial_trace(m, (2, 3, 2), (0, 2)), np.kron(a, c), atol=1e-12)


def test_partial_transpose_involution_and_trace():
    gen = np.random.default_rng(7)
    m = random_density(6, gen)
    pt = partial_transpose(m, (2, 3))
    assert np.isclose(np.trace(pt), 1.0)
    assert np.allclose(partial_transpose(pt, (2, 3)), m)


def test_partial_transpose_flags_entanglement():
    s = np.zeros((4, 4))
    s[1, 1] = s[2, 2] = 0.5
    s[1, 2] = s[2, 1] = -0.5
    assert np.linalg.eigvalsh(partial_transpose(s, (2, 2)))[0] == pytest.approx(-0.5)


def _perm_compose(p, q):
    # composition convention: applying q then p
    return tuple(p[q[i]] for i in range(len(p)))


@given(k=st.integers(2, 4), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_permutation_operator_homomorphism(k, seed):
    gen = np.random.default_rng(seed)
    p = tuple(gen.permutation(k))
    q = tuple(gen.permutation(k))
    left = permutation_operator(k, p) @ permutation_operator(k, q)
    right = permutation_operator(k, _perm_compose(p, q))
    assert np.allclose(left, right)


def test_permutation_operator_moves_basis_states():
    # cycle sending position 0->1, 1->2, 2->0 acting on |100>
    op = permutation_operator(3, (1, 2, 0))
    v = np.zeros(8)
    v[4] = 1.0  # |100>
    w = op @ v
    assert w[2] == 1.0  # |010>


def test_adjacent_transposition_perms():
    assert adjacent_transposition(4, 1) == (0, 2, 1, 3)
    op = permutation_operator(4, adjacent_transposition(4, 1))
    assert np.allclose(op @ op, np.eye(16))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2, (2, 2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5, 0, 0]), (2, 2))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2, 3))  # dims mismatch
    with pytest.raises(ValueError, match=r"^invalid layout \(\)$"):
        DensityMatrix(np.eye(1), ())
    dm = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert repr(dm) == "DensityMatrix(dim=4, dims=(2, 2))"
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 9  # frozen


def test_layout_entries_must_be_integers():
    # int() would read (2.9, 2.0) as (2, 2) and (True, 4) as (1, 4)
    m = np.eye(4) / 4
    for dims, bad in (((2.9, 2.0), 2.9), ((2, 2.0), 2.0), ((True, 4), True), ((np.True_, 4), np.True_)):
        message = f"^layout entry must be an integer, got {re.escape(repr(bad))}$"
        for call in (
            lambda: DensityMatrix(m, dims),
            lambda: partial_trace(m, dims, (0,)),
            lambda: partial_transpose(m, dims),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    # numpy integers are integers; the layout is kept as Python ints
    dm = DensityMatrix(m, (np.int64(2), np.uint8(2)))
    assert dm.dims == (2, 2) and all(type(d) is int for d in dm.dims)
    assert np.array_equal(partial_trace(m, np.array([2, 2]), (0,)), np.eye(2) / 2)
    assert np.array_equal(partial_transpose(m, (np.int32(2), 2)), m)


def test_subsystem_indices_must_be_integers():
    # int() would read keep (1.9,) and (True,) as (1,)
    m = np.diag([0.1, 0.2, 0.3, 0.4])
    for bad in (1.9, True, 1.0, np.True_):
        with pytest.raises(ValueError, match=f"^keep index must be an integer, got {re.escape(repr(bad))}$"):
            partial_trace(m, (2, 2), (bad,))
    assert np.array_equal(partial_trace(m, (2, 2), (np.int64(1),)), np.diag([0.1 + 0.3, 0.2 + 0.4]))
    with pytest.raises(ValueError, match=r"^keep indices \[2\] outside layout of 2 subsystems$"):
        partial_trace(m, (2, 2), (2,))
    with pytest.raises(ValueError, match=r"^matrix shape \(4, 4\) does not match layout \(2, 3\)$"):
        partial_trace(m, (2, 3), (0,))


def _with_lowest_eigenvalue(low: float, n: int = 6, seed: int = 0) -> np.ndarray:
    # Hermitian, spectrum {low, 0.2, ..., 1} in a random unitary basis
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    h = (q * np.append(low, np.linspace(0.2, 1.0, n - 1))) @ q.conj().T
    return (h + h.conj().T) / 2


def _eigvalsh_rule(h: np.ndarray, atol: float) -> float | None:
    # the positivity rule the Cholesky pre-check must agree with
    low = float(np.linalg.eigvalsh(h)[0])
    return low if low < -atol else None


@pytest.mark.parametrize("atol", [1e-8, 1e-6])
@pytest.mark.parametrize("scale", [-(1 + 1e-3), -(1 - 1e-3), -0.5, 0.0])
def test_eigenvalue_below_agrees_with_the_eigvalsh_rule(atol, scale):
    for seed in range(5):
        h = _with_lowest_eigenvalue(scale * atol, seed=seed)
        got = eigenvalue_below(h, atol)
        assert got == _eigvalsh_rule(h, atol)
        assert (got is not None) == (scale < -1)


def test_eigenvalue_below_on_rank_one_and_at_zero_tolerance():
    gen = np.random.default_rng(7)
    v = gen.standard_normal(5) + 1j * gen.standard_normal(5)
    rank_one = np.outer(v, v.conj()) / np.vdot(v, v).real
    assert eigenvalue_below(rank_one, 1e-8) is None
    # atol = 0 is the eigvalsh rule itself, rounding of the zero eigenvalues included
    for h in (rank_one, _with_lowest_eigenvalue(0.0), _with_lowest_eigenvalue(-1e-12), _with_lowest_eigenvalue(1e-3)):
        assert eigenvalue_below(h, 0.0) == _eigvalsh_rule(h, 0.0)
    assert eigenvalue_below(_with_lowest_eigenvalue(-1e-12), 0.0) is not None


def _random_hermitian(n: int, gen) -> np.ndarray:
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return (g + g.conj().T) / 2


def _werner_least_norm_blocks():
    # the least-norm point A^T (A A^T)^+ b of the qubit solver's affine set,
    # the block its Cholesky pre-check tests, on Werner states about the
    # threshold (k + 2) / (3k)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    for k in range(2, 6):
        cmap = solver.constraint_map(k, 2, 2)
        for off in (-0.05, -0.005, 0.005, 0.05):
            p = (k + 2) / (3 * k) + off
            b = np.append((p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4).reshape(-1), 1.0)
            x = np.zeros((cmap.n, cmap.n), dtype=complex)
            x.reshape(-1)[cmap.cols] = cmap.amap.T @ (cmap.gram_pinv @ b)
            yield x


def _seam_inputs():
    gen = np.random.default_rng(11)
    for n in range(1, 17):
        for _ in range(3):
            yield _random_hermitian(n, gen)
    yield from _werner_least_norm_blocks()


def test_the_seam_gives_numpy_linalg_bytes():
    for h in _seam_inputs():
        w, u = eigh(h)
        ref_w, ref_u = np.linalg.eigh(h)
        assert (w.dtype, u.dtype) == (ref_w.dtype, ref_u.dtype)
        assert w.tobytes() == ref_w.tobytes() and u.tobytes() == ref_u.tobytes()
        ref = np.linalg.eigvalsh(h)
        assert eigvalsh(h).dtype == ref.dtype and eigvalsh(h).tobytes() == ref.tobytes()


def _cholesky_succeeds(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _definiteness_cases():
    gen = np.random.default_rng(12)
    for n in (1, 2, 5, 9):
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        yield "definite", g @ g.conj().T
        if n > 1:
            v = g[:, :1]
            yield "singular", v @ v.conj().T
        yield "indefinite", _random_hermitian(n, gen) - 3 * np.eye(n)
    # NaN and inf entries above, on and below the diagonal: the factorization
    # reads the lower triangle, so numpy accepts a NaN above it
    for bad in (np.nan, complex(0, np.nan), np.inf):
        for i, j in ((0, 1), (1, 0), (1, 1)):
            h = np.eye(3, dtype=complex)
            h[i, j] = bad
            yield "non-finite", h


def test_is_positive_definite_is_numpy_cholesky_success():
    seen = set()
    for kind, h in _definiteness_cases():
        ok = _cholesky_succeeds(h)
        assert is_positive_definite(h) is ok, (kind, h)
        seen.add((kind, ok))
    assert {("definite", True), ("singular", False), ("indefinite", False), ("non-finite", True)} <= seen


def _error_state():
    return np.geterr(), np.geterrcall(), np.getbufsize()


def test_a_failed_factorization_is_silent_under_any_error_state():
    # each seam call runs under its own error state and leaves numpy's as it
    # found it, after a success and after a failure alike
    h = np.diag([1.0, -1.0, 2.0]).astype(complex)
    # dense: on a diagonal matrix with a NaN, eigh returns without failing
    nan_diagonal = np.full((3, 3), 0.1, dtype=complex)
    np.fill_diagonal(nan_diagonal, [1.0, np.nan, 1.0])
    recorded = []

    def recorder(err, flag):
        recorded.append((err, flag))

    def check_each_call():
        state = _error_state()
        assert is_positive_definite(np.eye(3, dtype=complex)) is True
        assert _error_state() == state
        assert is_positive_definite(h) is False
        assert _error_state() == state
        assert eigvalsh(h).tobytes() == np.linalg.eigvalsh(h).tobytes()
        assert _error_state() == state
        assert [a.tobytes() for a in eigh(h)] == [a.tobytes() for a in np.linalg.eigh(h)]
        assert _error_state() == state
        # eigh and eigvalsh fail as numpy's do, with numpy's message
        for seam, numpy_seam in ((eigh, np.linalg.eigh), (eigvalsh, np.linalg.eigvalsh)):
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                numpy_seam(nan_diagonal)
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                seam(nan_diagonal)
            assert _error_state() == state

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_each_call()
        with np.errstate(all="raise", call=recorder):
            check_each_call()
        # a user's "call" state would swallow a failure the seam did not own;
        # the buffer size differs from the one the seam's state was built with
        with np.errstate(all="call", call=recorder):
            np.setbufsize(2 * np.getbufsize())
            check_each_call()
    assert recorded == []


def test_density_matrix_psd_tolerance_and_message():
    with pytest.raises(ValueError, match=r"^minimum eigenvalue -5\.000e-01 below -1e-08$"):
        DensityMatrix(np.diag([1.5, -0.5, 0, 0]), (2, 2))
    # just inside the tolerance is accepted, just outside is not
    for low, ok in ((-0.999e-8, True), (-1.001e-8, False)):
        m = np.diag([1.0 - low, low, 0.0, 0.0])
        if ok:
            DensityMatrix(m, (2, 2))
        else:
            with pytest.raises(ValueError, match="minimum eigenvalue -1.001e-08 below -1e-08"):
                DensityMatrix(m, (2, 2))


def test_density_matrix_from_ket_and_marginal():
    ket = np.array([1, 0, 0, 1]) / np.sqrt(2)
    dm = DensityMatrix.from_ket(ket, (2, 2))
    assert np.allclose(dm.marginal([0]), np.eye(2) / 2)
    assert np.allclose(dm.marginal([1]), np.eye(2) / 2)
    # the norm is printed as a plain float, not as numpy's repr of its scalar
    with pytest.raises(ValueError, match=r"^ket norm 1\.4142135623730951 is not 1 within 1e-08$"):
        DensityMatrix.from_ket([1, 1], (2,))
    # a ket within its norm check gives a state whose trace, (1 + 8e-9)^2, is
    # outside the 1e-8 a checked DensityMatrix allows: it is built unchecked
    near = DensityMatrix.from_ket([1 + 8e-9, 0], (2,))
    assert near.matrix[0, 0] == (1 + 8e-9) ** 2 and abs(near.matrix[0, 0] - 1) > 1e-8


@given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_random_density_is_state(seed, dim):
    m = random_density(dim, np.random.default_rng(seed))
    assert np.isclose(np.trace(m).real, 1.0)
    assert np.linalg.norm(m - m.conj().T) / 2 <= 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-12

"""Shared fixtures and independent reference implementations.

The reference functions here deliberately use the dumbest possible
constructions (explicit index loops, full group sums) so the fast paths in
the package are checked against something with no shared code.
"""

import itertools
from math import comb, sqrt

import numpy as np
import pytest

from symext import DensityMatrix, build_schur_basis
from symext.schur import sym_isometry


@pytest.fixture(scope="session")
def basis2():
    return build_schur_basis(2)


@pytest.fixture(scope="session")
def basis3():
    return build_schur_basis(3)


@pytest.fixture(scope="session")
def basis4():
    return build_schur_basis(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def naive_partial_trace(m, dims, keep):
    """Index-by-index partial trace, quadratic in the full dimension."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    out_dim = int(np.prod([dims[i] for i in keep], initial=1))
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for row in itertools.product(*(range(d) for d in dims)):
        for col in itertools.product(*(range(d) for d in dims)):
            if any(row[i] != col[i] for i in traced):
                continue
            r = c = 0
            for i in keep:
                r = r * dims[i] + row[i]
                c = c * dims[i] + col[i]
            ri = int(np.ravel_multi_index(row, dims))
            ci = int(np.ravel_multi_index(col, dims))
            out[r, c] += m[ri, ci]
    return out


def permutation_operator(k, perm, local_dim=2):
    """Unitary 0/1 matrix sending the content of subsystem t to subsystem perm[t]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a bijection on 0..{k - 1}")
    d = int(local_dim)
    dim = d**k
    idx = np.arange(dim)
    digits = np.empty((k, dim), dtype=np.int64)
    rest = idx.copy()
    for t in range(k - 1, -1, -1):
        digits[t] = rest % d
        rest //= d
    target = np.zeros(dim, dtype=np.int64)
    for t in range(k):
        target += digits[t] * d ** (k - 1 - perm[t])
    p = np.zeros((dim, dim))
    p[target, idx] = 1.0
    return p


def adjacent_transposition(k, t):
    """Permutation tuple swapping subsystems t and t+1."""
    if not 0 <= t < k - 1:
        raise ValueError(f"transposition position {t} invalid for {k} subsystems")
    perm = list(range(k))
    perm[t], perm[t + 1] = perm[t + 1], perm[t]
    return tuple(perm)


def random_density(dim, rng):
    """Full-rank random density matrix from a Ginibre factor."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def planted_two_copy(dA, dB, seed):
    """A random full-rank state on A tensor Sym^2(C^dB), lifted into A tensor B tensor B."""
    n = dA * dB * (dB + 1) // 2
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
    x = g @ g.conj().T
    lift = np.kron(np.eye(dA), sym_isometry(2, dB))
    return DensityMatrix(lift @ (x / x.trace().real) @ lift.T, (dA, dB, dB))


def planted_marginal(dA, dB, k, seed):
    """The (A, B1) marginal of a random full-rank state on A tensor Sym^k(C^dB).

    The partial trace over B2..Bk of lift x lift^T is taken on the rows of
    the lift split into (A, B1) and the rest, so the dA dB^k square is never
    formed.
    """
    n = dA * comb(dB + k - 1, k)
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ np.array([1.0, 1j])
    x = g @ g.conj().T
    lift = np.kron(np.eye(dA), sym_isometry(k, dB)).reshape(dA * dB, dB ** (k - 1), n)
    return DensityMatrix(np.einsum("xrp,pq,yrq->xy", lift, x / x.trace().real, lift), (dA, dB))


def dicke(k, omega):
    """Uniform superposition over computational states with k/2 + omega ones."""
    n1 = omega + k / 2
    n1i = int(round(n1))
    if abs(n1i - n1) > 1e-9 or not 0 <= n1i <= k:
        raise ValueError(f"weight {omega} invalid for {k} qubits")
    v = np.zeros(2**k)
    for ones in itertools.combinations(range(k), n1i):
        v[sum(1 << b for b in ones)] = 1.0
    return v / sqrt(comb(k, n1i))


def full_group_average(m, k):
    """Average over all k! leg permutations of the B systems (A in front)."""
    dA = m.shape[0] // 2**k
    acc = np.zeros_like(m)
    count = 0
    for perm in itertools.permutations(range(k)):
        op = np.kron(np.eye(dA), permutation_operator(k, perm))
        acc += op @ m @ op.conj().T
        count += 1
    return acc / count


def singlet_state():
    s = np.zeros((4, 4))
    s[1, 1] = s[2, 2] = 0.5
    s[1, 2] = s[2, 1] = -0.5
    return DensityMatrix(s, (2, 2))


def product_state(seed=5):
    gen = np.random.default_rng(seed)
    return DensityMatrix(np.kron(random_density(2, gen), random_density(2, gen)), (2, 2))


def random_two_qubit_states(count, seed=1):
    """The boundary draw of the two-copy tests: for state i the rank is
    (2, 3, 3, 4)[i % 4], m = G G^dagger / tr for a complex Gaussian 4 x rank
    matrix G, mixed to p m + (1 - p) I/4 with p uniform in [0.3, 1)."""
    gen = np.random.default_rng(seed)
    out = []
    for i in range(count):
        r = (2, 3, 3, 4)[i % 4]
        g = gen.standard_normal((4, r)) + 1j * gen.standard_normal((4, r))
        m = g @ g.conj().T
        m /= m.trace().real
        p = gen.uniform(0.3, 1)
        out.append(p * m + (1 - p) * np.eye(4) / 4)
    return out


def cjklz_margin(rho: np.ndarray) -> float:
    """The closed form of Chen, Ji, Kribs, Lütkenhaus and Zeng (PRA 90, 032318):
    tr rho_B^2 - tr rho_AB^2 + 4 sqrt(det rho_AB), negative iff the two-qubit
    state has no two-copy extension on B."""
    r = rho.reshape(2, 2, 2, 2)
    rho_b = np.einsum("abac->bc", r)
    det = max(float(np.linalg.det(rho).real), 0.0)
    return float(np.trace(rho_b @ rho_b).real - np.trace(rho @ rho).real + 4 * np.sqrt(det))

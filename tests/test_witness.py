"""INFEASIBLE verdicts re-checked without the solver's constraint map.

A witness (W, c) proves that rho has no extension on A tensor Sym^k(C^dB)
when W tensor I, compressed to that space through the symmetric isometry,
plus c I is PSD while tr(W rho) + c < 0. Here the compression is built from
`schur.sym_isometry` and a plain Kronecker product, and the state's value is
a plain trace. Where the isometry's dB^k rows are too many, the compression
is built in the occupation basis from the hopping operators a_i^+ a_j
(`occupation_compression`), which is pinned to the isometry's where both fit.
The verdicts, certificates and witnesses of the werner grid, and of a random
draw that needs DR iterations, are also checked to follow a local unitary or
an isometry on A. Two verdict laws hold on a random draw: a state whose
mixture tau_k with its A marginal is NPT is INFEASIBLE, and excluded by a
witness read off tau_k's partial transpose in closed form; and a PPT state
is FEASIBLE, with a certificate that passes `verify_extension`.
"""

from dataclasses import replace
from functools import reduce
from itertools import product
from math import sqrt

import numpy as np
import pytest

from conftest import cjklz_margin, random_two_qubit_states, singlet_state
from symext.blocks import BosonicState
from symext.convert import tilde_state, verify_extension
from symext.io import save_state
from symext.linalg import DensityMatrix, partial_transpose
from symext.schur import sym_isometry
from symext.cli import run_command
from symext.solver import FEASIBLE, INFEASIBLE, qutrit_counterexample, solve_bosonic, solve_bosonic_k2_generic, solve_symmetric


def lift_compression(w, dA, dB, k):
    """W tensor I on A tensor B^k, compressed through the symmetric isometry."""
    # the rows of the lift are (A, B1) major, so with them split into (A, B1)
    # and the other legs, W acts on the first index alone: the compression
    # of W tensor I, without the dB^(k-1) identity
    lift = np.kron(np.eye(dA), sym_isometry(k, dB)).reshape(dA * dB, dB ** (k - 1), -1)
    return np.tensordot(lift.conj(), np.tensordot(w, lift, axes=(1, 0)), axes=([0, 1], [0, 1]))


def occupation_compression(w, dA, dB, k):
    """lift_compression(w, dA, dB, k), built in the occupation basis.

    On the symmetric subspace W tensor I acts as the average of W over the k
    legs, and the sum over legs of |i><j| on one leg is a_i^+ a_j
    (`hopping_operators`).
    """
    hops = hopping_operators(dB, k) / k
    z = np.einsum("aibj,ijpq->apbq", w.reshape(dA, dB, dA, dB), hops)
    return z.reshape(dA * hops.shape[2], -1)


def hopping_operators(dB, k):
    """a_i^+ a_j on Sym^k(C^dB) for every i, j, as an array indexed [i, j].

    a_i^+ a_j takes the occupation vector m to sqrt((m_i + 1 - [i = j]) m_j)
    times m - e_j + e_i. The vectors are listed in descending lexicographic
    order, the column order of `sym_isometry`.
    """
    occupations = sorted((n for n in product(range(k + 1), repeat=dB) if sum(n) == k), reverse=True)
    index = {n: p for p, n in enumerate(occupations)}
    hops = np.zeros((dB, dB, len(occupations), len(occupations)))
    for q, m in enumerate(occupations):
        for i, j in product(range(dB), repeat=2):
            if m[j]:
                n = list(m)
                n[j] -= 1
                n[i] += 1
                hops[i, j, index[tuple(n)], q] = sqrt(n[i] * m[j])
    return hops


def assert_excludes(w, c, rho: DensityMatrix, k: int, compression=lift_compression) -> float:
    """The stricter witness check: Z, W tensor I compressed plus c I, is PSD
    and tr(W rho) + c is below both 0 and lambda_min(Z). Returns the value."""
    dA, dB = rho.dims
    compressed = compression(w, dA, dB, k)
    low = np.linalg.eigvalsh(compressed + c * np.eye(len(compressed)))[0]
    assert low >= -1e-12
    value = float(np.trace(w @ rho.matrix).real) + c
    # every state sigma has tr(Z sigma) >= lambda_min(Z), so the witness
    # excludes rho only if its value is below that as well as below 0
    assert value < min(0.0, low)
    return value


def assert_witness_excludes(report, rho: DensityMatrix, k: int, compression=lift_compression):
    assert report.status == INFEASIBLE
    assert report.certificate is None
    value = assert_excludes(report.witness.w, report.witness.c, rho, k, compression)
    # the witness is scaled to unit norm of its operator, so -value is the gap bound
    assert value == pytest.approx(-report.gap_estimate, rel=1e-9, abs=1e-15)


def _werner(p):
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4, (2, 2))


@pytest.mark.parametrize("k", range(2, 9))
def test_werner_witnesses_above_the_threshold(k):
    pc = (k + 2) / (3 * k)
    for off in (0.05, 0.005, 0.002, 1e-3, 1e-4):
        rho = _werner(pc + off)
        assert_witness_excludes(solve_symmetric(rho, k), rho, k)


def _haar_columns(rng, n, m):
    """The first m columns of a Haar-random n x n unitary."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * (np.diag(r) / abs(np.diag(r))))[:, :m]


# three Haar-random U tensor V, and one isometry C^2 -> C^3 on A with the
# identity on B, drawn once from a fixed seed
_RNG = np.random.default_rng(2018)
_LOCAL_MAPS = [(_haar_columns(_RNG, 2, 2), _haar_columns(_RNG, 2, 2)) for _ in range(3)]
_LOCAL_MAPS.append((_haar_columns(_RNG, 3, 2), np.eye(2)))
# and for the random draw, one more isometry C^2 -> C^4 on A, drawn after them
_DRAW_MAPS = _LOCAL_MAPS + [(_haar_columns(_RNG, 4, 2), np.eye(2))]


@pytest.mark.parametrize("k", range(2, 6))
def test_werner_verdicts_follow_local_maps(k):
    # on the werner grid of the benchmark, decided at the first iteration: a
    # local map keeps the verdict, U tensor D_k(V), with D_k(V) = S^T V^(x k) S
    # on Sym^k(C^2), maps the certificate to one of the mapped state, and a
    # local unitary maps the witness to one of the mapped state
    iso = sym_isometry(k, 2)
    for off in (0.05, -0.05, 0.005, -0.005, -0.002):
        rho = _werner((k + 2) / (3 * k) + off)
        report = solve_symmetric(rho, k)
        assert report.iterations == 1
        for u, v in _LOCAL_MAPS:
            uv = np.kron(u, v)
            mapped = DensityMatrix(uv @ rho.matrix @ uv.conj().T, (len(u), 2))
            assert solve_symmetric(mapped, k).status == report.status, (off, u.shape)
            if report.status == FEASIBLE:
                m = np.kron(u, iso.T @ reduce(np.kron, [v] * k) @ iso)
                sigma = BosonicState(len(u), k, m @ report.certificate.matrix @ m.conj().T)
                assert verify_extension(sigma, mapped, k).bosonic_ok, (off, u.shape)
            elif len(u) == 2:
                witness = replace(report.witness, w=uv @ report.witness.w @ uv.conj().T)
                assert_witness_excludes(replace(report, witness=witness), mapped, k)


def symmetric_power(v, k):
    """D_k(V) = S^T V^(x k) S on Sym^k(C^2), for a unitary V, without V^(x k).

    With V = exp(iH), D_k(V) = exp(i dpi(H)) for dpi(H) = sum_ij H_ij a_i^+ a_j,
    built in the weight basis of `hopping_operators`.
    """
    phases, q = np.linalg.eig(v)
    h = q @ np.diag(np.angle(phases)) @ np.linalg.inv(q)
    lam, p = np.linalg.eigh(np.einsum("ij,ijpq->pq", (h + h.conj().T) / 2, hopping_operators(2, k)))
    return (p * np.exp(1j * lam)) @ p.conj().T


@pytest.mark.parametrize("k, count", [(8, 16), (64, 6)])
def test_random_draw_verdicts_follow_local_maps(k, count):
    # the laws of the werner test on a random draw that needs DR iterations,
    # where D_k(V) is built in the weight basis, pinned to S^T V^(x 8) S at
    # k = 8; and a mixture of consecutive FEASIBLE certificates is one of
    # the mixed states
    iso = sym_isometry(8, 2)
    for _, v in _DRAW_MAPS:
        assert np.allclose(symmetric_power(v, 8), iso.T @ reduce(np.kron, [v] * 8) @ iso, rtol=0, atol=1e-12)
    compression = lift_compression if k <= 8 else occupation_compression
    feasible = []
    for matrix in random_two_qubit_states(16, seed=7)[:count]:
        rho = DensityMatrix(matrix, (2, 2))
        report = solve_symmetric(rho, k)
        assert report.status in (FEASIBLE, INFEASIBLE)
        for u, v in _DRAW_MAPS:
            uv = np.kron(u, v)
            mapped = DensityMatrix(uv @ rho.matrix @ uv.conj().T, (len(u), 2))
            assert solve_symmetric(mapped, k).status == report.status, u.shape
            if report.status == FEASIBLE:
                m = np.kron(u, symmetric_power(v, k))
                sigma = BosonicState(len(u), k, m @ report.certificate.matrix @ m.conj().T)
                assert verify_extension(sigma, mapped, k).bosonic_ok, u.shape
            elif len(u) == 2:
                witness = replace(report.witness, w=uv @ report.witness.w @ uv.conj().T)
                assert_witness_excludes(replace(report, witness=witness), mapped, k, compression)
        if report.status == FEASIBLE:
            feasible.append((rho.matrix, report.certificate.matrix))
    for (rho1, x1), (rho2, x2) in zip(feasible, feasible[1:]):
        sigma = BosonicState(2, k, 0.3 * x1 + 0.7 * x2)
        assert verify_extension(sigma, DensityMatrix(0.3 * rho1 + 0.7 * rho2, (2, 2)), k).bosonic_ok


# the draw of the two verdict laws below, fixed before their first run
_LAW_DRAW = random_two_qubit_states(400, seed=7)


def _law_states(k):
    """The draw at k in {2, 3, 5, 8}, and the werner grid at pc + 0.05 and pc + 0.005 for k = 2..5."""
    states = [DensityMatrix(m, (2, 2)) for m in _LAW_DRAW] if k in (2, 3, 5, 8) else []
    if k <= 5:
        states += [_werner((k + 2) / (3 * k) + off) for off in (0.05, 0.005)]
    return states


@pytest.mark.parametrize("k, count", [(2, 5), (3, 17), (4, 2), (5, 38), (8, 51)])
def test_npt_tilde_state_is_infeasible_and_its_eigenvector_excludes_it(k, count):
    # Navascues, Owari and Plenio (PRA 80, 052306): a k-bosonic extension of
    # rho makes tau_k = (rho_A tensor I + k rho) / (k + 2) PPT. So an NPT tau_k
    # is INFEASIBLE, and the eigenvector v of tau_k^(T_B) at its negative
    # eigenvalue lambda gives, with W_pt = (|v><v|)^(T_B), the witness
    # W = (tr_B(W_pt) tensor I + k W_pt) / (k + 2) and c = 0, of value
    # tr(W rho) = tr(W_pt tau_k) = lambda
    npt = 0
    for rho in _law_states(k):
        tilde = tilde_state(rho, k)
        if tilde.pt_min_eigenvalue >= -1e-10:
            continue
        npt += 1
        assert solve_symmetric(rho, k).status == INFEASIBLE
        v = np.linalg.eigh(partial_transpose(tilde.state.matrix, (2, 2)))[1][:, 0]
        w_pt = partial_transpose(np.outer(v, v.conj()), (2, 2))
        w = (np.kron(np.einsum("abcb->ac", w_pt.reshape(2, 2, 2, 2)), np.eye(2)) + k * w_pt) / (k + 2)
        assert abs(np.trace(w @ rho.matrix).real - tilde.pt_min_eigenvalue) <= 1e-12
        assert_excludes(w, 0.0, rho, k)
    assert npt == count


@pytest.mark.parametrize("k", [2, 3, 8])
def test_ppt_two_qubit_states_are_feasible(k):
    # a PPT two-qubit state is separable (Horodecki, Phys. Lett. A 223, 1),
    # so it has a k-symmetric extension for every k, and a certificate of it
    ppt = [m for m in _LAW_DRAW if np.linalg.eigvalsh(partial_transpose(m, (2, 2)))[0] >= 0]
    assert len(ppt) == 272
    for matrix in ppt:
        rho = DensityMatrix(matrix, (2, 2))
        report = solve_symmetric(rho, k)
        assert report.status == FEASIBLE
        assert verify_extension(report.certificate, rho, k).bosonic_ok


def test_cjklz_witnesses():
    states = [m for m in random_two_qubit_states(1000) if cjklz_margin(m) < 0]
    assert len(states) == 20
    for matrix in states:
        rho = DensityMatrix(matrix, (2, 2))
        assert_witness_excludes(solve_symmetric(rho, 2), rho, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_singlet_witness(k):
    rho = singlet_state()
    assert_witness_excludes(solve_symmetric(rho, k), rho, k)


def test_qutrit_counterexample_witness():
    rho, _, _ = qutrit_counterexample()
    assert_witness_excludes(solve_bosonic_k2_generic(rho), rho, 2)


@pytest.mark.parametrize("k", range(2, 17))
def test_qutrit_counterexample_is_excluded_at_every_k(tmp_path, k):
    # no bosonic 2-extension, so none with more legs: check-bos says so, and
    # the witness of the one solve behind it passes the stricter check, on
    # the occupation-basis compression; up to k = 8, where the isometry's
    # 3^k rows are affordable, that compression equals the lift's
    rho, _, _ = qutrit_counterexample()
    path = tmp_path / "qutrit.state"
    save_state(rho, path)
    code, report = run_command(["check-bos", "--k", str(k), "--in", str(path), "--cert", str(tmp_path / "cert")])
    assert code == 2 and "\nstatus: INFEASIBLE\n" in report, report
    assert not (tmp_path / "cert").exists()
    solved = solve_bosonic(rho, k)
    if k <= 8:
        w = solved.witness.w
        assert np.allclose(occupation_compression(w, 3, 3, k), lift_compression(w, 3, 3, k), rtol=0, atol=1e-12)
    assert_witness_excludes(solved, rho, k, occupation_compression)
    assert f"witness: tr(W rho) + c = {solved.witness.value(rho):.6e}\n" in report

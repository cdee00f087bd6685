"""Tests of the benchmark's output checker.

    python3 -m pytest -q bench/test_check.py

The reference computations here build Dicke vectors and embeddings entry by
entry and trace them out with explicit index arithmetic.
"""

import itertools
import json
import sys
from math import comb, sqrt
from pathlib import Path

import numpy as np
import pytest

import check

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / m.trace().real


def _dicke_vector(k, n):
    v = np.zeros(2**k)
    for ones in itertools.combinations(range(k), n):
        v[sum(1 << (k - 1 - q) for q in ones)] = 1.0
    return v / sqrt(comb(k, n))


def _keep_first_two(full, d0, d1, rest):
    """Trace out everything after the first two subsystems, index by index."""
    out = np.zeros((d0 * d1, d0 * d1), dtype=complex)
    for a, b, x, y, r in itertools.product(range(d0), range(d1), range(d0), range(d1), range(rest)):
        out[a * d1 + b, x * d1 + y] += full[(a * d1 + b) * rest + r, (x * d1 + y) * rest + r]
    return out


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("dA", [1, 2])
def test_dicke_pair_marginal_matches_brute_force(k, dA):
    m = _random_density(dA * (k + 1), np.random.default_rng(10 * k + dA))
    lift = np.kron(np.eye(dA), np.stack([_dicke_vector(k, n) for n in range(k + 1)], axis=1))
    brute = _keep_first_two(lift @ m @ lift.conj().T, dA, 2, 2 ** (k - 1))
    assert np.abs(check.dicke_pair_marginal(m, dA, k) - brute).max() < 1e-12
    assert check.bosonic_problems(m, dA, k, brute, "state") == []


@pytest.mark.parametrize("dB", [2, 3, 4])
def test_two_copy_marginal_matches_brute_force(dB):
    dA = 2
    m = _random_density(dA * dB * (dB + 1) // 2, np.random.default_rng(dB))
    iso = check.sym2_isometry(dB)
    swap = np.zeros((dB * dB, dB * dB))
    for i, j in itertools.product(range(dB), repeat=2):
        swap[j * dB + i, i * dB + j] = 1.0
    assert np.abs(iso.T @ iso - np.eye(iso.shape[1])).max() < 1e-12
    assert np.abs(swap @ iso - iso).max() < 1e-12
    full = np.kron(np.eye(dA), iso) @ m @ np.kron(np.eye(dA), iso).T
    brute = _keep_first_two(full, dA, dB, dB)
    assert np.abs(check.two_copy_marginal(m, dA, dB) - brute).max() < 1e-12


def _corrupt(path, index, delta, key="entries"):
    doc = json.loads(path.read_text())
    entries = doc["blocks"][0]["entries"] if key == "blocks" else doc["entries"]
    entries[index][0] += delta
    path.write_text(json.dumps(doc))


def test_rejects_a_certificate_with_one_entry_corrupted(tmp_path):
    import symext
    from symext.io import save_bosonic

    k, dA = 3, 2
    rho, _ = symext.gen_random_extendible(k, dA, seed=4)
    report = symext.solve_symmetric(rho, k)
    sigma = symext.sym_to_bos(report.certificate)
    path = tmp_path / "sigma.state"
    n = dA * (k + 1)
    for index in (0, 1, n + 1, n * n - 1):  # diagonal, adjacent, diagonal, last
        save_bosonic(sigma, path)
        m = check.read_matrix(path)
        assert check.bosonic_problems(m, dA, k, rho.matrix, "sigma") == []
        _corrupt(path, index, 1e-4)
        bad = check.read_matrix(path)
        assert check.bosonic_problems(bad, dA, k, rho.matrix, "sigma") != []

    cert = tmp_path / "cert.blocks"
    symext.save_blocks(report.certificate, cert)
    _, _, blocks = check.read_blocks(cert)
    assert check.blocks_problems(k, dA, blocks, "cert") == []
    _corrupt(cert, 1, 1e-4, key="blocks")
    _, _, blocks = check.read_blocks(cert)
    assert check.blocks_problems(k, dA, blocks, "cert") != []


def test_werner_verdicts_and_tilde_screen():
    k = 3
    pc = check.werner_threshold(k)
    assert check.werner_verdict(k, pc - 0.002) == "FEASIBLE"
    assert check.werner_verdict(k, pc + 0.002) == "INFEASIBLE"
    rho = check.werner_matrix(pc - 0.01)
    tilde = (np.kron(np.eye(2) / 2, np.eye(2)) + k * rho) / (k + 2)
    assert check.tilde_problems(tilde, rho, 2, k, "tilde") == []
    assert check.tilde_problems(check.werner_matrix(0.9), check.werner_matrix(0.9), 2, k, "tilde") != []

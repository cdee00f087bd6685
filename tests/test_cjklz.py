"""Two-copy verdicts against the closed form of Chen, Ji, Kribs, Lütkenhaus
and Zeng (PRA 90, 032318): a two-qubit state is 2-extendible on B if and only
if tr rho_B^2 >= tr rho_AB^2 - 4 sqrt(det rho_AB).

The states are the first 1000 of a fixed random draw: for state i the rank
is (2, 3, 3, 4)[i % 4], m = G G^dagger / tr for a complex Gaussian 4 x rank
matrix G, mixed to p m + (1 - p) I/4 with p uniform in [0.3, 1).
"""

import numpy as np
import pytest

from symext.linalg import DensityMatrix
from symext.solver import FEASIBLE, INFEASIBLE, solve_symmetric


def _margin(rho: np.ndarray) -> float:
    r = rho.reshape(2, 2, 2, 2)
    rho_b = np.einsum("abac->bc", r)
    det = max(float(np.linalg.det(rho).real), 0.0)
    return float(np.trace(rho_b @ rho_b).real - np.trace(rho @ rho).real + 4 * np.sqrt(det))


@pytest.fixture(scope="module")
def verdicts():
    gen = np.random.default_rng(1)
    out = []
    for i in range(1000):
        r = (2, 3, 3, 4)[i % 4]
        g = gen.standard_normal((4, r)) + 1j * gen.standard_normal((4, r))
        m = g @ g.conj().T
        m /= m.trace().real
        p = gen.uniform(0.3, 1)
        rho = p * m + (1 - p) * np.eye(4) / 4
        out.append((i, _margin(rho), solve_symmetric(DensityMatrix(rho, (2, 2)), 2).status))
    return out


def test_verdicts_never_contradict_the_closed_form(verdicts):
    # the draw holds 20 states without a two-copy extension
    assert sum(margin < 0 for _, margin, _ in verdicts) == 20
    for i, margin, status in verdicts:
        if status == FEASIBLE:
            assert margin >= 0, i
        if margin < 0:
            assert status == INFEASIBLE, i


@pytest.mark.xfail(strict=True, reason="stall heuristic, ROADMAP item 1")
def test_every_extendible_state_is_feasible(verdicts):
    wrong = [i for i, margin, status in verdicts if margin >= 0 and status != FEASIBLE]
    assert wrong == []

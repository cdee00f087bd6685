"""Two-copy verdicts against the closed form of Chen, Ji, Kribs, Lütkenhaus
and Zeng (PRA 90, 032318): a two-qubit state is 2-extendible on B if and only
if tr rho_B^2 >= tr rho_AB^2 - 4 sqrt(det rho_AB).

The closed form is `conftest.cjklz_margin`, and the states are the first
1000 of the fixed random draw `conftest.random_two_qubit_states`.
"""

import pytest

from conftest import cjklz_margin, random_two_qubit_states
from symext.linalg import DensityMatrix
from symext.solver import FEASIBLE, INFEASIBLE, solve_symmetric


@pytest.fixture(scope="module")
def verdicts():
    return [
        (i, cjklz_margin(rho), solve_symmetric(DensityMatrix(rho, (2, 2)), 2))
        for i, rho in enumerate(random_two_qubit_states(1000))
    ]


def test_verdicts_never_contradict_the_closed_form(verdicts):
    # the draw holds 20 states without a two-copy extension
    assert sum(margin < 0 for _, margin, _ in verdicts) == 20
    for i, margin, report in verdicts:
        if report.status == FEASIBLE:
            assert margin >= 0, i
        if margin < 0:
            assert report.status == INFEASIBLE, i


def test_every_extendible_state_is_feasible(verdicts):
    wrong = [i for i, margin, report in verdicts if margin >= 0 and report.status != FEASIBLE]
    assert wrong == []


def test_every_infeasible_verdict_carries_a_witness(verdicts):
    for i, _, report in verdicts:
        assert (report.status == INFEASIBLE) == (report.witness is not None), i
        assert report.certificate is None or report.witness is None, i

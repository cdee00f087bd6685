"""The ten numbered acceptance criteria, one test each.

Each criterion runs the ordinary tests that hold it, at their instances and
tolerances, so `pytest tests/test_acceptance.py` is the whole acceptance run.
The modules are imported whole, not their test functions, so that pytest does
not collect those a second time here."""

import pytest

import test_convert
import test_io_cli
import test_schur
import test_solver
import test_young


def _dimension_bookkeeping():
    test_young.test_sector_dimensions_tile_the_cube()
    test_young.test_multiplicity_equals_hook_dim()


def _basis_validity():
    test_schur.test_basis_orthonormal_small()
    test_schur.test_permutations_block_diagonal_and_weight_independent()
    test_schur.test_jplus_ladder_action()


def _solver_calibration():
    for k in range(1, 11):
        test_solver.test_product_state_always_extendible(k)
    test_solver.test_singlet_not_extendible(2)
    for k, dA, seed in [(2, 2, 0), (3, 2, 1), (4, 3, 2), (5, 2, 3)]:
        test_solver.test_planted_instances_feasible(k, dA, seed)


def _three_copy_golden():
    test_convert.test_three_copy_golden_conversion()
    test_schur.test_section3_spans()


def _mixing_screen():
    test_convert.test_planted_marginals_pass_the_screen()
    test_convert.test_singlet_tilde_crosses_at_two_legs()


CRITERIA = {
    1: _dimension_bookkeeping,
    2: _basis_validity,
    3: test_schur.test_marginal_coefficients_against_brute_force,
    4: _three_copy_golden,
    5: test_convert.test_planted_non_bosonic_witness_converts,
    6: test_convert.test_pair_state_converts_to_triplet,
    7: _solver_calibration,
    8: test_solver.test_antisymmetric_qutrit_marginal_not_bosonic_extendible,
    9: _mixing_screen,
}


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number, tmp_path):
    if number == 10:
        # determinism: the file pipeline writes the same bytes twice
        test_io_cli.test_pipeline_gen_check_convert_verify(tmp_path)
    else:
        CRITERIA[number]()

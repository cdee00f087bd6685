"""Symmetric and bosonic extendibility of bipartite states with a qubit side.

The package decides whether a state admits a k-party symmetric extension of
its B subsystem, converts any such extension into one supported on the
symmetric (Dicke) subspace, and ships verifiers for every numerical claim
it relies on.
"""

from .blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    BlockState,
    blocks_to_global,
    gen_random_extendible,
    global_to_blocks,
    marginal_from_blocks,
)
from .convert import BosonicState, ExtensionReport, TildeReport, sym_to_bos, tilde_state, verify_extension
from .io import MatrixFile, MatrixFileError, load_blocks, load_extension, load_state, save_blocks, save_state
from .linalg import DensityMatrix, partial_trace, partial_transpose
from .schur import SchurBasis, alpha_coeff, build_schur_basis, coeff_matrix_P, diag_coeffs, p_coeff
from .solver import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    SolverConfig,
    SolverReport,
    qutrit_counterexample,
    solve_bosonic,
    solve_bosonic_k2_generic,
    solve_symmetric,
)
from .young import YoungDiagram, hook_dim, list_diagrams

__version__ = "0.1.0"

__all__ = [
    "PROFILE_ALL",
    "PROFILE_EXCLUDE_BOSONIC",
    "BlockState",
    "BosonicState",
    "DensityMatrix",
    "ExtensionReport",
    "FEASIBLE",
    "INFEASIBLE",
    "MatrixFile",
    "MatrixFileError",
    "SchurBasis",
    "SolverConfig",
    "SolverReport",
    "TildeReport",
    "UNDECIDED",
    "YoungDiagram",
    "alpha_coeff",
    "blocks_to_global",
    "build_schur_basis",
    "coeff_matrix_P",
    "diag_coeffs",
    "gen_random_extendible",
    "global_to_blocks",
    "hook_dim",
    "list_diagrams",
    "load_blocks",
    "load_extension",
    "load_state",
    "marginal_from_blocks",
    "p_coeff",
    "partial_trace",
    "partial_transpose",
    "qutrit_counterexample",
    "save_blocks",
    "save_state",
    "solve_bosonic",
    "solve_bosonic_k2_generic",
    "solve_symmetric",
    "sym_to_bos",
    "tilde_state",
    "verify_extension",
    "__version__",
]

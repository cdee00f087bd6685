"""Symmetric and bosonic extendibility of bipartite states with a qubit side.

The package decides whether a state admits a k-party symmetric extension of
its B subsystem, converts any such extension into one supported on the
symmetric (Dicke) subspace, and ships verifiers for every numerical claim
it relies on. Everything else is imported from its submodule.
"""

from .blocks import (
    PROFILE_ALL,
    PROFILE_EXCLUDE_BOSONIC,
    BlockState,
    blocks_to_global,
    gen_random_extendible,
    global_to_blocks,
)
from .convert import BosonicState, ExtensionReport, TildeReport, sym_to_bos, tilde_state, verify_extension
from .io import MatrixFileError, load_blocks, load_extension, load_state, save_blocks, save_state
from .linalg import DensityMatrix
from .schur import build_schur_basis
from .solver import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    SolverReport,
    qutrit_counterexample,
    solve_bosonic,
    solve_bosonic_k2_generic,
    solve_symmetric,
)
from .young import YoungDiagram

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
    "MatrixFileError",
    "SolverReport",
    "TildeReport",
    "UNDECIDED",
    "YoungDiagram",
    "blocks_to_global",
    "build_schur_basis",
    "gen_random_extendible",
    "global_to_blocks",
    "load_blocks",
    "load_extension",
    "load_state",
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

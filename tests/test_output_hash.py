"""The CLI grid of tools/output_hash.py gives the same reports and files
whatever the caches hold: the solver's constraint maps, the Schur bases and
the sector tables. The digest itself is not pinned, since the floats of a
solve depend on the BLAS build.
"""

import importlib.util
import pathlib
from collections import OrderedDict

from symext import schur, solver

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_hash.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_hash", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_grid_digest_does_not_depend_on_cache_state(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    schur._build_schur_basis_cached.cache_clear()
    schur.sector_tables.cache_clear()
    cold = tool.grid_digest()
    assert solver._MAPS and schur.sector_tables.cache_info().currsize
    assert tool.grid_digest() == cold

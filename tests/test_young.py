import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symext.young import YoungDiagram, hook_dim, list_diagrams


def multiplicity(k, lam):
    """Number of equivalent copies of a sector, by the branching rule: each
    added spin grows either row, and the rows stay ordered."""
    counts = {(1, 0): 1}
    for _ in range(k - 1):
        grown = {}
        for (l1, l2), count in counts.items():
            for row in ((l1 + 1, l2), (l1, l2 + 1)):
                if row[0] >= row[1]:
                    grown[row] = grown.get(row, 0) + count
        counts = grown
    return counts.get((lam.lambda1, lam.lambda2), 0)


def count_standard_tableaux(lam):
    """Brute force: count fillings of the two-row shape that increase along
    rows and down columns."""
    k = lam.k
    cells = [(0, c) for c in range(lam.lambda1)] + [(1, c) for c in range(lam.lambda2)]
    count = 0
    for perm in itertools.permutations(range(1, k + 1)):
        fill = dict(zip(cells, perm))
        ok = all(fill[(r, c)] < fill[(r, c + 1)] for r, c in cells if (r, c + 1) in fill)
        ok = ok and all(fill[(0, c)] < fill[(1, c)] for c in range(lam.lambda2))
        if ok:
            count += 1
    return count


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram(1, 2)
    with pytest.raises(ValueError):
        YoungDiagram(-1, 0)
    # a bool is an int to Python, but not a row length
    for rows in ((True, False), (1, False)):
        with pytest.raises(ValueError, match="^row lengths must be integers$"):
            YoungDiagram(*rows)
    lam = YoungDiagram(3, 1)
    assert lam.k == 4
    assert lam.spin == 1.0
    assert lam.num_weights == 3


def test_weights_ascending_and_indexable():
    lam = YoungDiagram(4, 1)
    w = lam.weights()
    assert np.allclose(w, [-1.5, -0.5, 0.5, 1.5])
    # weight w sits at position w + j of every per-weight table
    assert np.array_equal(w + lam.spin, np.arange(lam.num_weights))


def test_list_diagrams_structure():
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        list_diagrams(0)
    assert list_diagrams(1) == [YoungDiagram(1, 0)]
    assert list_diagrams(4) == [YoungDiagram(4, 0), YoungDiagram(3, 1), YoungDiagram(2, 2)]
    for k in range(1, 13):
        ds = list_diagrams(k)
        assert all(d.k == k for d in ds)
        assert ds[0].lambda2 == 0


def test_hook_dim_known_values():
    assert hook_dim(YoungDiagram(1, 0)) == 1
    assert hook_dim(YoungDiagram(1, 1)) == 1
    assert hook_dim(YoungDiagram(2, 1)) == 2
    assert hook_dim(YoungDiagram(2, 2)) == 2
    assert hook_dim(YoungDiagram(3, 1)) == 3
    assert hook_dim(YoungDiagram(3, 3)) == 5
    assert hook_dim(YoungDiagram(5, 4)) == 42


@given(lambda2=st.integers(0, 3), extra=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_hook_dim_matches_tableau_count(lambda2, extra):
    # brute force is k!; keep k = 2*lambda2 + extra small
    lam = YoungDiagram(lambda2 + extra, lambda2)
    if lam.k == 0:
        return
    assert hook_dim(lam) == count_standard_tableaux(lam)


def test_sector_dimensions_tile_the_cube():
    for k in range(1, 13):
        assert sum(hook_dim(lam) * lam.num_weights for lam in list_diagrams(k)) == 2**k


def test_multiplicity_equals_hook_dim():
    for k in range(1, 13):
        for lam in list_diagrams(k):
            assert multiplicity(k, lam) == hook_dim(lam)

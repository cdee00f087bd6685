"""Two-row partitions of k spins and the count of their coupling paths."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np


@dataclass(frozen=True)
class YoungDiagram:
    """Two-row partition [lambda1, lambda2] labelling a joint spin sector."""

    lambda1: int
    lambda2: int

    def __post_init__(self):
        l1, l2 = self.lambda1, self.lambda2
        # a bool is an int to isinstance, but not a row length
        if not (isinstance(l1, int) and isinstance(l2, int)) or isinstance(l1, bool) or isinstance(l2, bool):
            raise ValueError("row lengths must be integers")
        if not l1 >= l2 >= 0:
            raise ValueError(f"rows must satisfy lambda1 >= lambda2 >= 0, got [{l1},{l2}]")

    @property
    def k(self) -> int:
        return self.lambda1 + self.lambda2

    @property
    def spin(self) -> float:
        """Total spin j = (lambda1 - lambda2) / 2."""
        return (self.lambda1 - self.lambda2) / 2

    @property
    def num_weights(self) -> int:
        return self.lambda1 - self.lambda2 + 1

    def weights(self) -> np.ndarray:
        """Total J_z eigenvalues carried by the sector, ascending."""
        return -self.spin + np.arange(self.num_weights, dtype=float)

    def __str__(self):
        return f"[{self.lambda1},{self.lambda2}]"


@lru_cache(maxsize=1024)
def top_sector(k: int) -> YoungDiagram:
    """The top (fully symmetric) sector [k, 0], built once per k: a YoungDiagram is immutable."""
    return YoungDiagram(k, 0)


def list_diagrams(k: int) -> list[YoungDiagram]:
    """All two-row partitions of k, first row decreasing."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return [YoungDiagram(k - r, r) for r in range(k // 2 + 1)]


def hook_dim(lam: YoungDiagram) -> int:
    """Number of standard tableaux of the diagram (hook length formula)."""
    l1, l2 = lam.lambda1, lam.lambda2
    return factorial(l1 + l2) * (l1 - l2 + 1) // (factorial(l2) * factorial(l1 + 1))

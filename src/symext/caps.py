"""Runtime size caps for the number of extension legs, and the check of a size argument."""

from __future__ import annotations

import operator
import os

_ENV_VAR = "SYMEXT_MAX_K"

FULL_SPACE_DEFAULT = 12
BLOCK_DEFAULT = 64


def full_space_cap() -> int:
    """Largest k allowed for operations that materialize 2^k-dimensional objects."""
    value = os.environ.get(_ENV_VAR)
    return int(value) if value else FULL_SPACE_DEFAULT


def block_cap() -> int:
    """Largest k allowed for operations that stay in per-sector block coordinates."""
    value = os.environ.get(_ENV_VAR)
    return int(value) if value else BLOCK_DEFAULT


def block_cap_error(k: int) -> ValueError:
    """The error for a k outside 1..block_cap()."""
    return ValueError(f"k={k} outside 1..{block_cap()} (set SYMEXT_MAX_K to change the cap)")


def integer_size(name: str, value) -> int:
    """A size argument as a Python int.

    Python and numpy integers pass; a bool, a float or anything else raises a
    ValueError that names the argument.
    """
    # a bool is an int to operator.index, but not a size
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")

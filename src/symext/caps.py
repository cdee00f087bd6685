"""Size policy, and the check of a size argument.

Block-coordinate work caps k at BLOCK_CAP. A dense array over the full 2^k
space, or a constraint map, is refused with a ValueError before it is
allocated when its bytes would exceed DENSE_BYTES_LIMIT (1 GiB): the Schur
basis (8 * 4^k bytes) above k = 13, a glued or embedded state
(16 (dA 2^k)^2 bytes) above dA 2^k = 8192: above k = 13, 12, 11 and 11 at
dA = 1..4.
"""

from __future__ import annotations

import operator

BLOCK_CAP = 64
DENSE_BYTES_LIMIT = 2**30


def block_cap_error(k: int) -> ValueError:
    """The error for a k outside 1..BLOCK_CAP."""
    return ValueError(f"k={k} outside 1..{BLOCK_CAP}")


def check_dense_bytes(what: str, nbytes: int) -> None:
    """Refuse an array of nbytes dense bytes above DENSE_BYTES_LIMIT; what names it."""
    if nbytes > DENSE_BYTES_LIMIT:
        raise ValueError(f"{what} needs {nbytes / 2**20:.1f} MiB, above the {DENSE_BYTES_LIMIT / 2**20:g} MiB limit")


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

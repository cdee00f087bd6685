"""Size policy, and the check of a size argument.

Two rules check k. `block_k` takes k in 1..BLOCK_CAP, for block-coordinate
work: the solves, both block-state types, `gen_random_extendible`,
`verify_extension` and `build_schur_basis`. `convert.tilde_state` and
`young.list_diagrams` build no block and take any integer k >= 1. A dense
array over the full 2^k space, or a constraint map, is refused with a
ValueError before it is allocated when the bytes charged for it would exceed
DENSE_BYTES_LIMIT (1 GiB). A full-space array is charged the peak of the
call that builds it, not only its own bytes: the Schur basis (8 * 4^k bytes,
built at a peak of about twice that) is charged 3 * 8 * 4^k and refused
above k = 12; a glued state (16 (dA 2^k)^2 bytes, built at a peak of about
three times that) is charged 4 * 16 (dA 2^k)^2 and refused above dA 2^k =
4096: above k = 12, 11, 10 and 10 at dA = 1..4.
"""

from __future__ import annotations

import operator

BLOCK_CAP = 64
DENSE_BYTES_LIMIT = 2**30


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


def block_k(k) -> int:
    """The k of block-coordinate work: an integer (`integer_size`) in 1..BLOCK_CAP."""
    k = integer_size("k", k)
    if not 1 <= k <= BLOCK_CAP:
        raise ValueError(f"k={k} outside 1..{BLOCK_CAP}")
    return k

"""Dense complex linear algebra on multipartite systems.

Operators are plain numpy arrays. A layout is a tuple of local dimensions;
subsystem 0 is the leftmost tensor factor and the most significant digit of a
computational basis index.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np

HERMITIAN_ATOL = 1e-10

_EPS = np.finfo(float).eps


def hermitian_part(x: np.ndarray, atol: float, nonfinite: str, not_hermitian: str) -> np.ndarray:
    """Hermitian part (x + x^H) / 2 of a square x, after checking x.

    x must have finite entries and a deviation from Hermitian, the Frobenius
    norm ||x - x^H|| / 2, of at most atol. Otherwise the ValueError carries
    the message nonfinite, or not_hermitian formatted with the fields atol
    and dev. A non-finite entry always makes the deviation inf or NaN, so the
    entries are scanned only once the deviation check has failed, to pick
    the message. Where x + x^H overflows, the result is x / 2 + x^H / 2, which
    is finite; every other result is (x + x^H) * 0.5, bit for bit.
    """
    xh = x.conj().T
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and overflow, reported below
        d = x - xh
    dev = sqrt(np.vdot(d, d).real) / 2
    if not dev <= atol:
        if not np.isfinite(x).all():
            raise ValueError(nonfinite)
        raise ValueError(not_hermitian.format(atol=atol, dev=dev))
    try:
        with np.errstate(over="raise"):
            return (x + xh) * 0.5
    except FloatingPointError:  # entries near the largest double; halved first, they cannot overflow
        return x * 0.5 + xh * 0.5


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep.

    Kept subsystems appear in the result in their original order, so the map
    is linear and trace preserving.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    total = prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match layout {dims}")
    n = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} outside layout of {n} subsystems")
    t = m.reshape(dims + dims)
    keep_set = set(keep)
    ket = list(range(n))
    bra = [n + i if i in keep_set else i for i in range(n)]
    out_axes = keep + [n + i for i in keep]
    r = np.einsum(t, ket + bra, out_axes)
    dk = prod(dims[i] for i in keep)
    return r.reshape(dk, dk)


def partial_transpose(m: np.ndarray, dims, sys: int) -> np.ndarray:
    """Transpose one subsystem in place."""
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= sys < n:
        raise ValueError(f"subsystem {sys} outside layout of {n} subsystems")
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[sys], axes[n + sys] = axes[n + sys], axes[sys]
    return t.transpose(axes).reshape(m.shape)


def min_eigenvalue(h: np.ndarray, atol: float = HERMITIAN_ATOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    h = hermitian_part(
        np.asarray(h), atol, "input entries must be finite", "input is not Hermitian (anti-Hermitian norm {dev:.3e})"
    )
    return float(np.linalg.eigvalsh(h)[0])


def eigenvalue_below(h: np.ndarray, atol: float) -> float | None:
    """The smallest eigenvalue of a finite Hermitian h if it is below -atol, else None.

    A Cholesky factorization of h + (atol / 2) I succeeds only if that matrix
    is positive definite up to a backward error of at most
    (n + 1) n eps ||h|| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10). While that bound is below atol / 2, a success
    puts every eigenvalue of h above -atol, so h is accepted without an
    eigendecomposition. Otherwise, and whenever atol is 0, the eigvalsh rule
    decides.
    """
    n = h.shape[0]
    if atol / 2 > (n + 1) * n * _EPS * sqrt(np.vdot(h, h).real):
        shifted = h.copy()
        shifted.flat[:: n + 1] += atol / 2
        try:
            np.linalg.cholesky(shifted)
            return None
        except np.linalg.LinAlgError:
            pass
    low = float(np.linalg.eigvalsh(h)[0])
    return low if low < -atol else None


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator with a layout.

    check_psd=False skips the positivity check; callers use it when positivity
    is structural (for example a matrix assembled from PSD blocks). The check
    accepts a matrix whose smallest eigenvalue is at least -atol; a Cholesky
    factorization settles most matrices, and only one it cannot accept is
    handed to eigvalsh (see `eigenvalue_below`).
    """

    def __init__(self, matrix, dims, *, atol: float = 1e-8, check_psd: bool = True):
        matrix = np.array(matrix, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid layout {dims}")
        total = prod(dims)
        if matrix.shape != (total, total):
            raise ValueError(f"matrix shape {matrix.shape} does not match layout {dims}")
        matrix = hermitian_part(
            matrix, atol, "matrix entries must be finite", "matrix is not Hermitian within {atol:g} (deviation {dev:.3e})"
        )
        tr = float(matrix.trace().real)
        if abs(tr - 1.0) > atol:
            raise ValueError(f"trace {tr!r} is not 1 within {atol:g}")
        if check_psd:
            low = eigenvalue_below(matrix, atol)
            if low is not None:
                raise ValueError(f"minimum eigenvalue {low:.3e} below -{atol:g}")
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dims = dims

    @classmethod
    def from_ket(cls, ket, dims, *, atol: float = 1e-8) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(ket)
        if abs(nrm - 1.0) > atol:
            raise ValueError(f"ket norm {nrm!r} is not 1 within {atol:g}")
        return cls(np.outer(ket, ket.conj()), dims, atol=atol, check_psd=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep) -> np.ndarray:
        return partial_trace(self.matrix, self.dims, keep)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"

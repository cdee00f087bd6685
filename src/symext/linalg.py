"""Dense complex linear algebra on multipartite systems.

Operators are plain numpy arrays. A layout is a tuple of local dimensions,
each a Python or numpy integer, not a bool or a float (`caps.integer_size`);
subsystem 0 is the leftmost tensor factor and the most significant digit of
a computational basis index. `partial_transpose` transposes B, the second
factor of a bipartite layout (dA, dB): the tilde screen of
`convert.tilde_state` needs no other.

Every Hermitian factorization of the package goes through one seam here:
`is_positive_definite`, `eigh` and `eigvalsh`. Each calls the LAPACK gufunc
that `numpy.linalg` itself calls, `numpy.linalg._umath_linalg.cholesky_lo`,
`eigh_lo` or `eigvalsh_lo` with the complex signature `D->D`, `D->dD` or
`D->d`, so every output equals numpy's bit for bit; it skips only the
wrapper's type resolution and shape checks, which a square complex input
does not need. Each call runs under numpy's own error state for these
gufuncs: `invalid="call"`, `over`, `divide` and `under` ignored, and a
raiser of `LinAlgError("Eigenvalues did not converge")`, numpy's own for
eigh and eigvalsh. So a failed factorization raises as it does in numpy,
and a user's `np.seterr` changes nothing. A failed Cholesky test raises the
same `LinAlgError`, which `is_positive_definite` catches to answer False,
so no caller sees its message. That one error state is built once at
import with `numpy._core.umath._make_extobj`; `_lapack`, through which all
three calls go, sets numpy's `_extobj_contextvar` to it and resets the
token in a `finally` block, which is what `np.errstate` does, less the
building of a new state and a context manager on every call. An error
state also holds the ufunc buffer size, so the prebuilt one keeps the
`np.getbufsize()` of import time; these gufuncs do not buffer, and the
caller's buffer size is back once a call returns.
On a 10 x 10 complex PD block `np.linalg.cholesky` took 4.7 us, the bare
gufunc 1.8 us, and `is_positive_definite` 3.4 us under a fresh
`np.errstate` against 2.3 us with a prebuilt state; `eigvalsh` took 9.3 us
against 7.9 us, and `eigh` 16.8 us against 15.3 us, both within 0.4 us of
their gufuncs (timeit medians, one process, one BLAS thread, 2-core Xeon).
`_make_extobj` and `_extobj_contextvar` are the names `np.errstate` is
built on since numpy 2.0, the floor in pyproject.toml; there is no
fallback, so a numpy that renames them or the gufuncs fails at import.

One rule decides what a state's constructor checks, in `DensityMatrix` at
1e-8 and in `blocks.BlockState` at 1e-6. Each takes the Hermitian part of
its matrix and refuses a non-finite entry or a larger Hermitian deviation.
A checked state, as every one read from outside is, also refuses a trace
that far from 1 or an eigenvalue below minus the tolerance; checked=False
skips those two, for a state built from checked parts or measured by
`convert.verify_extension`.
"""

from __future__ import annotations

from math import inf, isfinite, isnan, prod, sqrt

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from .caps import integer_size

_EPS = np.finfo(float).eps
_TOL = 1e-8  # of every DensityMatrix check: Hermitian deviation, trace and positivity

def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# numpy.linalg's error state around its LAPACK gufuncs, built once where
# np.errstate would build it on every call: a failed factorization sets the
# invalid flag, which calls the raiser
_LAPACK_STATE = _make_extobj(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore")


def _lapack(gufunc, h: np.ndarray, signature: str):
    """gufunc(h) under _LAPACK_STATE, with the caller's error state back after."""
    token = _extobj_contextvar.set(_LAPACK_STATE)
    try:
        return gufunc(h, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def is_positive_definite(h: np.ndarray) -> bool:
    """Whether a Cholesky factorization of the square complex h succeeds.

    It reads the lower triangle alone, as np.linalg.cholesky does, and is
    False exactly where np.linalg.cholesky raises LinAlgError.
    """
    try:
        _lapack(_umath_linalg.cholesky_lo, h, "D->D")
    except LinAlgError:
        return False
    return True


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) of np.linalg.eigh(h) for a square complex h, bit for bit."""
    return _lapack(_umath_linalg.eigh_lo, h, "D->dD")


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(h) for a square complex h, bit for bit."""
    return _lapack(_umath_linalg.eigvalsh_lo, h, "D->d")


def hermitian_part(x: np.ndarray, atol: float, nonfinite: str, not_hermitian: str) -> np.ndarray:
    """Hermitian part (x + x^H) / 2 of a square x, after checking x.

    x must have finite entries and a deviation from Hermitian, the Frobenius
    norm ||x - x^H|| / 2, of at most atol. Otherwise the ValueError carries
    the message nonfinite, or not_hermitian formatted with the fields atol
    and dev. A non-finite entry always makes the deviation inf or NaN, so the
    entries are scanned only once the deviation check has failed, to pick
    the message. Where the squared norm overflows, dev is measured on a
    scaled x - x^H, and a finite x whose x - x^H overflows reports dev as inf.
    Where x + x^H overflows, the result is x / 2 + x^H / 2, which is finite;
    every other result is (x + x^H) * 0.5, bit for bit. The result is always
    a new array. The call holds at most three arrays of x's size at once, x
    among them: x, x^H and x - x^H, then x, x^H and the result.
    """
    xh = x.conj().T
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and overflow, reported below
        d = x - xh
    dev = sqrt(np.vdot(d, d).real) / 2
    if not dev <= atol:
        if not np.isfinite(x).all():
            raise ValueError(nonfinite)
        if not isfinite(dev):
            # the squared norm overflowed: scale d to parts of at most 1 first;
            # an entry of d that overflowed itself leaves dev NaN or inf
            with np.errstate(invalid="ignore", over="ignore"):
                s = max(np.abs(d.real).max(), np.abs(d.imag).max())
                dev = s / 2 * sqrt(np.vdot(d / s, d / s).real)
        raise ValueError(not_hermitian.format(atol=atol, dev=inf if isnan(dev) else dev))
    del d
    try:
        with np.errstate(over="raise"):
            h = x + xh
    except FloatingPointError:  # entries near the largest double; halved first, they cannot overflow
        return x * 0.5 + xh * 0.5
    h *= 0.5
    return h


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep.

    Kept subsystems appear in the result in their original order, so the map
    is linear and trace preserving. Each keep index must be an integer.
    """
    m = np.asarray(m)
    dims = tuple(integer_size("layout entry", d) for d in dims)
    total = prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match layout {dims}")
    n = len(dims)
    keep = sorted(set(integer_size("keep index", i) for i in keep))
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


def partial_transpose(m: np.ndarray, dims) -> np.ndarray:
    """Transpose B, the second subsystem of the bipartite layout dims = (dA, dB)."""
    m = np.asarray(m)
    dA, dB = (integer_size("layout entry", d) for d in dims)
    return m.reshape(dA, dB, dA, dB).transpose(0, 3, 2, 1).reshape(m.shape)


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
        if is_positive_definite(shifted):
            return None
    low = float(eigvalsh(h)[0])
    return low if low < -atol else None


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator with a layout,
    checked by the rule of the module docstring (positivity by `eigenvalue_below`)."""

    def __init__(self, matrix, dims, *, checked: bool = True):
        # no copy: hermitian_part returns a new array
        matrix = np.asarray(matrix, dtype=complex)
        dims = tuple(integer_size("layout entry", d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid layout {dims}")
        total = prod(dims)
        if matrix.shape != (total, total):
            raise ValueError(f"matrix shape {matrix.shape} does not match layout {dims}")
        matrix = hermitian_part(
            matrix, _TOL, "matrix entries must be finite", "matrix is not Hermitian within {atol:g} (deviation {dev:.3e})"
        )
        if checked:
            tr = float(matrix.trace().real)
            if abs(tr - 1.0) > _TOL:
                raise ValueError(f"trace {tr!r} is not 1 within {_TOL:g}")
            low = eigenvalue_below(matrix, _TOL)
            if low is not None:
                raise ValueError(f"minimum eigenvalue {low:.3e} below -{_TOL:g}")
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dims = dims

    @classmethod
    def from_ket(cls, ket, dims) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        nrm = float(np.linalg.norm(ket))
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"ket norm {nrm!r} is not 1 within 1e-08")
        return cls(np.outer(ket, ket.conj()), dims, checked=False)

    def marginal(self, keep) -> np.ndarray:
        return partial_trace(self.matrix, self.dims, keep)

    def __repr__(self):
        return f"DensityMatrix(dim={self.matrix.shape[0]}, dims={self.dims})"

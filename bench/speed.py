"""Machine-speed calibration for the benchmark's timings.

The speed of a small shared VM drifts: in bursts of seconds and in phases of
minutes, by up to 2x, with CPU time tracking wall time. A fixed kernel that
shares no code with symext, a mix of interpreter work and small numpy
linear algebra like the solver's, is timed just before and just after each
operation. The operation's wall time multiplied by REFERENCE_S over the mean
of those two kernel times is its time at the reference speed: the speed at
which the kernel takes REFERENCE_S, about this machine's typical speed. A
change to symext moves that figure in full; a slow phase of the machine
moves the operation and the kernel alike and cancels.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.004

_RNG = np.random.default_rng(20181)
_HERMITIAN = [(g + g.T) / 2 for g in _RNG.standard_normal((36, 20, 20))]
_SMALL = _RNG.standard_normal((36, 4, 4))


def _kernel() -> float:
    acc = 0.0
    for h, s in zip(_HERMITIAN, _SMALL):
        acc += float(np.linalg.eigvalsh(h)[0])
        acc += float(np.kron(s, s).trace())
        weights = {}
        for i in range(60):
            weights[i % 7] = weights.get(i % 7, 0.0) + float(s[i % 4, (i // 4) % 4])
        acc += sum(weights.values())
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0

"""How fast the machine runs right now, from a fixed reference computation.

On a shared host the same operation can take half again as long for tens of
seconds at a time while another tenant is busy, and CPU time stretches with
wall time, so it is not time the process was descheduled. `kernel` is a
fixed computation that does not touch baggrasp, with the same kinds of
work as the workloads: interpreted Python with small numpy and LAPACK calls
(the control loop), whole-image numpy passes (classical vision), and an
im2col copy of a batch of four network inputs with BLAS products over it
(the learned model's convolutions). The benchmark times it right before
and after every timed step (an import, a set-up or an operation) and
scales the step's time by NOMINAL_S over the kernel's time, so a slow
spell of the host slows both and cancels out, while a change to baggrasp
moves only the step.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the kernel's time on the machine the benchmark was
# tuned on (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS
# thread). Scaled timings read as if taken on that machine when it runs
# the kernel in NOMINAL_S; the constant sets only that scale, not what is
# compared.
NOMINAL_S = 0.05

_rng = np.random.default_rng(20230512)
_JAC = _rng.standard_normal((6, 7))
_VEC = _rng.standard_normal(7)
_IMG = _rng.random((120, 160))
_BATCH = _rng.standard_normal((4, 3, 36, 64))
_FILTERS = _rng.standard_normal((27, 8))


def kernel() -> float:
    """The reference computation; returns a checksum so none of it is idle."""
    s = 0.0
    for i in range(300):
        p = np.linalg.pinv(_JAC)
        v = _JAC @ _VEC
        s += float(v[i % 6]) + float(p[i % 7, 0])
    for _ in range(120):
        gy = np.abs(np.diff(_IMG, axis=0))[:, :-1]
        gx = np.abs(np.diff(_IMG, axis=1))[:-1]
        s += float(((gx + gy) > 0.5).sum())
    n, c = _BATCH.shape[:2]
    windows = np.lib.stride_tricks.sliding_window_view(
        _BATCH, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    for _ in range(32):
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = cols.reshape(n, windows.shape[2] * windows.shape[3], c * 9)
        out = np.maximum(cols @ _FILTERS, 0.0)
        s += float(np.einsum("npo,npk->ok", out, cols)[0, 0])
    return s


def time_kernel() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

"""A fixed reference kernel, timed next to every workload call, so that timings
can be given at a fixed host speed.

The host this benchmark was tuned on (2 shared vCPUs) runs the same code up to
1.5x faster or slower for seconds to minutes at a time, with no steal time
visible in the guest.  Wall times taken minutes apart therefore differ by more
than any useful bound.  The kernel below is timed just before and just after
each call; the call's time is scaled by REF_S over the mean of the two.  The
kernel mixes what the workloads spend their time on: interpreted Python,
LAPACK on small dense matrices, and fresh allocations of large arrays.  It
uses only Python and numpy, never cosetlab, so no change to the program under
test moves it.

A scaled time reads "seconds at reference speed": what the call would have
taken on a host that runs the kernel in REF_S.
"""

from __future__ import annotations

import time

import numpy as np

# Rounded median duration of reference() on the tuning host: 2-vCPU Intel Xeon guest
# at 2.0 GHz, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread.
REF_S = 0.1

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_B = _rng.standard_normal((200, 200))
_P = (_rng.random((512, 512)) < 0.01).astype(float)


def _interpreter() -> int:
    table, total = {}, 0
    for j in range(60000):
        table[j & 255] = table.get(j & 255, 0) + j
        total += len(str(j))
    return total


def _lapack() -> None:
    for _ in range(6):
        np.linalg.svd(_A)
        np.linalg.qr(_B)


def _memory() -> float:
    total = 0.0
    for _ in range(4):
        x = np.zeros((1024, 1024))
        x[::7, ::3] = 1.0
        total += float((_P @ _P).sum() + x.sum())
    return total


def reference() -> float:
    """Run the kernel once; its wall time in seconds."""
    start = time.perf_counter()
    _interpreter()
    _lapack()
    _memory()
    return time.perf_counter() - start


def scale(before: float, after: float, ref_s: float = REF_S) -> float:
    """Factor taking a wall time measured between two kernel runs of the given
    durations to seconds at reference speed."""
    return ref_s / ((before + after) / 2.0)


class Scaler:
    """Runs the kernel between consecutive calls; each run closes one call's
    bracket and opens the next one's."""

    def __init__(self):
        self.last = reference()
        self.runs = [self.last]

    def close(self) -> float:
        """Scale factor of the call that just ended."""
        now = reference()
        self.runs.append(now)
        factor = scale(self.last, now)
        self.last = now
        return factor

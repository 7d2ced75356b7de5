"""Reference kernels that gauge the machine's speed next to each timed job.

On a shared host the speed of the benchmark's own CPU drifts by up to
~1.5x over minutes, with the co-tenants' load, and a whole run can fall
in a slow stretch.  No statistic within one run removes that.  So every
timed job (and every set-up) is followed by one call of a fixed
reference kernel, and the job's time is divided by the mean of the
reference times just before and just after it.  Multiplied by the
kernel's nominal time, that ratio is the job's time in seconds of a
machine on which the kernel takes its nominal time.

The kernel resembles the workload's dominant kind of work, so that the
co-tenants slow both alike:

* ``interpreter`` -- dict inserts, complex arithmetic and a Python loop,
  like the channel tables, ``node_information`` and ``select_retainers``;
* ``blas`` -- dense float64 mat-vecs through BLAS, like the consensus
  kernel.

The kernels are fixed benchmark code: they do not depend on the seed or
on anything under ``src/``, so they run alike on every commit.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_BLAS_N = 512
_BLAS_MATRIX = np.random.default_rng(0).standard_normal((_BLAS_N, _BLAS_N))


def _interpreter() -> float:
    # Int keys and complex values are not tracked by the cyclic garbage
    # collector, so the kernel's cost does not grow with the heap.
    table = {}
    for i in range(30000):
        table[i] = complex(i % 97, 1.0) * 0.5
    total = 0.0
    for key, value in table.items():
        total += abs(value) * (key & 7)
    return total


def _blas() -> float:
    y = np.ones(_BLAS_N)
    for _ in range(300):
        y = _BLAS_MATRIX @ y
        y /= np.linalg.norm(y)
    return float(y[0])


# name: (kernel, its nominal seconds).  The nominal time is about the
# kernel's median on the 2-vCPU VM the benchmark was written on; it only
# sets the scale of the reported times and never changes.
KERNELS = {
    "interpreter": (_interpreter, 0.015),
    "blas": (_blas, 0.025),
}


def reference_seconds(kind: str) -> float:
    """Wall time of one call of the ``kind`` reference kernel."""
    kernel = KERNELS[kind][0]
    start = perf_counter()
    kernel()
    return perf_counter() - start


def nominal_seconds(kind: str) -> float:
    return KERNELS[kind][1]

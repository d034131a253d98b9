"""Reference kernels that measure the host's speed during a run.

On a shared host, co-tenant load changes how fast this process executes,
from one second to the next and from one run to the next (README.md,
"Noise"). CPU time rises with wall time, so the process is slowed, not
descheduled. The benchmark therefore times a fixed kernel between its
operations and reports each time scaled by ``NOMINAL[kind]`` over the
kernel's time around it: seconds at the kernel's nominal speed. The kernels
are the benchmark's own code, so no change to rdcopt can move them. Each
metric is scaled by the kernel whose kind of work matches it: the
interpreter with small numpy objects, LAPACK on 5 x 5 or on 60 x 60
matrices, or elementwise passes over a 20,001-point array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# round figures near the kernels' median seconds on the development host
# (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31, one thread); they fix the unit only
NOMINAL = {"python": 2.2e-3, "small": 1.0e-3, "lapack": 1.5e-3, "array": 1.7e-3}

_RNG = np.random.default_rng(20211209)
_SYM60 = _RNG.standard_normal((60, 60))
_SYM60 = _SYM60 + _SYM60.T
_SPD60 = _SYM60 @ _SYM60.T + 60.0 * np.eye(60)
_SYM5 = _SYM60[:5, :5].copy()
_GRID = np.linspace(-10.0, 10.0, 20001)


def python_kernel() -> float:
    """Scalar float arithmetic with a small numpy array per step, as in the 2-D solvers."""
    x1, x2, acc = 0.1, 0.2, 0.0
    for _ in range(2000):
        v = x1 * x1 - x2
        g = np.array([4.0 * v * x1 + 2.0 * (x1 - 1.0), -2.0 * v])
        acc += float(g[0]) * 1e-12 - float(g[1]) * 1e-12
        x1, x2 = x1 + 1e-9, x2 - 1e-9
    return acc


def lapack_kernel() -> float:
    """Symmetric eigendecompositions and a solve at n = 60."""
    acc = 0.0
    for _ in range(4):
        acc += float(np.linalg.eigh(_SYM60)[0][0])
    return acc + float(np.linalg.solve(_SPD60, _SYM60)[0, 0])


def small_kernel() -> float:
    """Symmetric eigendecompositions at n = 5, where per-call overhead dominates."""
    acc = 0.0
    for _ in range(100):
        acc += float(np.linalg.eigh(_SYM5)[0][0])
    return acc


def array_kernel() -> float:
    """Elementwise passes and an argmax over the duality suite's grid."""
    return float(np.argmax(-_GRID - (_GRID ** 4 + _GRID ** 2)))


KERNELS = {"python": python_kernel, "small": small_kernel, "lapack": lapack_kernel,
           "array": array_kernel}


def probe(kind: str, repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of the kernel of ``kind``, taken now."""
    kernel = KERNELS[kind]
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)

"""Machine-speed probe, independent of the package under test.

A fixed loop of numpy work in the same mix the workloads run: many calls on
small arrays from Python, einsum contractions of a few hundred kilobytes,
and reductions over arrays of a few megabytes. Its rate moves with the
speed the shared host gives this process.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 100

# Iterations per second of the loop in ``speed()`` on the host the benchmark
# was defined on (2-vCPU Intel Xeon, Python 3.11, numpy 2.4) when other
# tenants did not slow it. Rates are reported as if the host ran this fast.
REFERENCE_RATE = 850.0


def _arrays():
    rng = np.random.default_rng(20071)
    small = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    fields = rng.standard_normal((4, 4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4, 4))
    rx = rng.standard_normal((4, 256)) + 1j * rng.standard_normal((4, 256))
    big = rng.standard_normal((1024, 16, 6)) + 1j * rng.standard_normal((1024, 16, 6))
    return small, fields, rx, big


_ARRAYS = _arrays()


def speed() -> float:
    """Rate of one fixed pass of the loop, as a share of REFERENCE_RATE."""
    small, fields, rx, big = _ARRAYS
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        for _ in range(25):
            b = np.roll(small[::-1], 1) * small
            np.einsum("k,k->", b, b.conj())
            np.concatenate((b[:8], b[8:]))
        v = np.einsum("gcij,jk->gcik", fields, rx)
        np.real(np.einsum("gcik,gcik->gck", v, v.conj())).argmin(axis=1)
        r = big - big[:, :1, :]
        np.einsum("kct,kct->kc", r, r.conj()).real.argmin(axis=1)
    return ITERATIONS / (time.perf_counter() - t0) / REFERENCE_RATE

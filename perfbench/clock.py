"""Timing corrected for the speed of a shared machine.

On a host whose cores are shared with other work, the same code runs up to
40% faster or slower for periods of seconds, so raw wall times from runs a
few minutes apart disagree by more than any useful regression bound. Each
timed section is therefore bracketed by a fixed calibration kernel (small
matrix products and dict updates: small NumPy calls plus interpreter work,
as in neurofuzz) and also reported scaled by REF_S over the
kernel's time around it: on a machine where the kernel takes REF_S the
scaled time equals the wall time, and a machine-wide slowdown cancels out.
Measured on a 2-core x86-64 host, the kernel's ratio to a campaign moves 6%
between the host's fast and slow states while raw times move 40%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Kernel time on the reference machine (2-core x86-64, OpenBLAS, one thread).
REF_S = 0.030


def kernel_s() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 150)).astype(np.float32)
    b = rng.standard_normal((150, 16)).astype(np.float32)
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    start = time.perf_counter()
    for i in range(2500):
        total += float(np.maximum(a @ b, 0).sum())
        table[(i % 97, i % 13)] = total
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    raw_s: float  # wall time
    scaled_s: float  # wall time at the reference machine speed


class Section:
    """Times the body of a with-block; .timing is set on exit."""

    timing: Timing

    def __enter__(self):
        self._before = kernel_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        raw = time.perf_counter() - self._start
        kernel = (self._before + kernel_s()) / 2.0
        self.timing = Timing(raw, raw * REF_S / kernel)
        return False

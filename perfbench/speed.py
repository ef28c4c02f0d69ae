"""Machine-speed reference: a fixed kernel timed in CPU seconds.

The virtual machines this benchmark runs on share their host. Over minutes the
same code runs up to twice as slow, and stolen time adds spikes to wall
time. A run therefore times this kernel between passes, and reports each
pass's time scaled by ``NOMINAL_CPU_S`` over the mean of the kernel times
just before and just after it: the time the pass would have taken at the
kernel's nominal speed. The reported metric is the median of these.

The host slows each CPU on its own, and ``sweep-rk4``'s thread pool runs on
all of them, so one reference runs the kernel once pinned to each CPU the
process may use and takes the mean.

The kernel is the benchmark's own code, so no change to kdvtorus moves it.
It mixes what the workloads do: 512-point FFT pairs with small complex
array arithmetic (stepping), broadcast index grids the size of support-16
and support-32 operator sums reduced by ``bincount`` (the normal-form
operators), and a plain Python loop
(drivers and I/O). The kernel is timed in the CPU time of the calling
thread: that leaves out time stolen by the host, and work that threads left
running by the program (a BLAS or thread pool spinning after a pass) cannot
move the scale.
"""

from __future__ import annotations

import os
from time import thread_time

import numpy as np

#: the reference point of the scale, in kernel CPU seconds. Only ratios
#: matter: changing it scales the reported times of every commit alike.
NOMINAL_CPU_S = 0.06

#: the kernel runs on at most this many CPUs: ``epsilon_sweep``'s pool has
#: at most four workers
MAX_CPUS = 4


def _grid(support: int, rng):
    ks = np.arange(-support, support + 1)
    ks = ks[ks != 0]
    g2, g3, g4 = np.meshgrid(ks, ks, ks, indexing="ij")
    vals = rng.standard_normal(ks.size) + 0j
    quad = vals[:, None, None] * vals[None, :, None] * vals[None, None, :]
    return ks, g2, g3, g4, quad


def _grid_sum(grid, k1s, out) -> None:
    ks, g2, g3, g4, quad = grid
    offset = out.size // 2
    for k1 in k1s:
        denom = k1 * (k1 + g2) * (k1 + g3 + g4) * (g2 + g3 + g4)
        ok = denom != 0
        tot = (k1 + g2 + g3 + g4)[ok] + offset
        terms = quad[ok] * np.exp(0.37j * tot.astype(float) ** 3) / denom[ok]
        out += np.bincount(tot, weights=terms.real, minlength=out.size)


def reference_cpu_s() -> float:
    """Run the fixed kernel pinned to each CPU this process may use (at most
    ``MAX_CPUS``); return the mean CPU seconds it took."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})  # pins the calling thread only
            times.append(_kernel_cpu_s())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def _kernel_cpu_s() -> float:
    rng = np.random.default_rng(0)
    k = np.arange(257, dtype=float)
    mask = (k <= 170).astype(float)
    phase = np.exp(-0.5j * 1e-5 * k**3)
    a = (rng.standard_normal(257) + 1j * rng.standard_normal(257)) * mask
    small, large = _grid(16, rng), _grid(32, rng)
    out = np.zeros(400)
    start = thread_time()
    for _ in range(300):
        s = np.fft.irfft(a * mask, n=512)
        a = phase * (a + 0.5e-11j * k * np.fft.rfft(s * s))
    _grid_sum(small, small[0][::4], out)
    _grid_sum(large, large[0][::32], out)
    total = 0
    for i in range(15000):
        total += i % 7
    return thread_time() - start

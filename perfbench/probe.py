"""One pass of a workload in a fresh process, for set-up time or peak memory.

Run by ``run.py`` as
``python3 probe.py <workload> <seed> <smoke 0|1> <outdir> <setup|rss>``
with ``PYTHONPATH`` naming the checkout's ``src``. It draws the workload's
inputs from the seed and starts the same pass as ``run.py`` (the same CLI
command and library calls).

``setup``: the pass is stopped at its first step (the first ``numpy.fft``
call made inside ``experiments.evolve``) or its first ``normal_form``
operator call, so import, configuration, initial data and the stepping
workspace are all inside the measured time. There the probe writes
``ready <perf_counter>`` to stdout and ends the process; on Linux
``perf_counter`` is the system-wide monotonic clock, so the parent can
subtract its own reading taken just before it started this process. A pass
that ends without reaching either point exits non-zero.

``rss``: the pass runs to its end, and the probe writes ``rss <MB>``, the
peak resident set of the process (``VmHWM``; ``ru_maxrss`` would carry the
parent's peak over ``fork``/``exec``): the program's own memory, free of the
benchmark's speed reference and bookkeeping. It is written even if the pass
raises (the timed passes count that failure).
"""

import os
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from kdvtorus import experiments, normal_form
from workloads import WORKLOADS

FIRST = threading.Lock()  # the sweep's worker threads race to their first step


def ready(*args, **kwargs):
    now = perf_counter()
    FIRST.acquire()
    # the CLI's stdout is redirected while it runs; write to the real one
    os.write(1, f"ready {now!r}\n".encode())
    os._exit(0)


def until_first_step(evolve):
    def evolve_to_first_fft(*args, **kwargs):
        np.fft.rfft = np.fft.irfft = ready
        return evolve(*args, **kwargs)

    return evolve_to_first_fft


name, seed, smoke, outdir, mode = sys.argv[1:6]
workload = WORKLOADS[name](smoke == "1")
inputs = workload.draw(np.random.default_rng(int(seed)), Path(outdir))
if mode == "setup":
    experiments.evolve = until_first_step(experiments.evolve)
    for op in ("b2", "b3", "b4", "rhs_v"):
        setattr(normal_form, op, ready)
    workload.run(inputs)
    sys.exit("the pass ended before its first step or operator call")
try:
    workload.run(inputs)
finally:
    status = Path("/proc/self/status").read_text().split("\n")
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    os.write(1, f"rss {peak_kb / 1024!r}\n".encode())

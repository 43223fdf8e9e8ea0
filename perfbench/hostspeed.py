"""Host-speed calibration: a fixed kernel, timed between the benchmark's calls.

On a shared host the same single-threaded work runs 20 to 40% slower in
some stretches than in others, for seconds to minutes at a time, and no
statistic over one call's repeats removes a stretch that covers the whole
run.  So the benchmark times a fixed kernel of its own right before and
right after each call and scales the call's time by how fast the kernel ran
around it.  Scaled times are reference seconds: roughly the time the work
takes while the kernel takes ``REFERENCE_S``.  Raw wall times are kept next
to them.

The kernel's time swings more than the calls' do under the same
contention, and by how much depends on the kind of work.  On a 2-vCPU VM,
kernel samples were alternated for four minutes, twice, with a fixed
``verify`` (``handover_stop`` at bound 22, about 1 s) and a fixed 2M-sample
``classify``.  Regressing the log of a call's time on the log of the mean of
the two kernel samples around it gave slopes of 0.64 and 0.67 for
``verify`` and 0.47 and 0.45 for ``classify``.  So a call is scaled by the
kernel's slowdown raised to ``EXPONENTS[kind]``.  Over 11 s blocks of those
runs this cut the quartile spread of block medians of ``verify`` from 15-29%
to 6%, and of ``classify`` from 9-15% to 5%.  Scaling by the whole slowdown
over-corrects ``classify``: its spread rose to 13-14%.  A kernel with a
25 MB working set tracked no better: measured against it too, ``verify``
slowed about 1.5 times as much as ``classify`` (in log terms).

The kernel belongs to the benchmark and calls no code under ``src/``, so no
change to the program changes it.  It is pure-Python list, dict and integer
traffic, the kind of work the SAT solver and the encoder do.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's time on a quiet 2-vCPU VM; it sets only the scale of the
# reported seconds.
REFERENCE_S = 0.040
# How far a timing follows the kernel's slowdown, by the kind of work timed
# (see the module docstring).  Set-up is pure-Python work like `verify`:
# enumeration, compiling, and the solver runs that make replay traces.
EXPONENTS = {"verify": 0.65, "setup": 0.65, "classify": 0.5, "export": 0.5}


def kernel() -> int:
    watch: list[list[int]] = [[] for _ in range(512)]
    assign = [0] * 512
    seen: dict[int, int] = {}
    acc = 0
    for i in range(135_000):
        v = (i * 2654435761) & 511
        w = watch[v]
        if len(w) < 8:
            w.append(i)
        else:
            w.pop(0)
        assign[v] ^= 1
        acc += assign[(v * 7) & 511]
        seen[v] = acc
    return acc


def sample(repeats: int = 1) -> float:
    """Median time of `repeats` kernel runs, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float], kind: str) -> float:
    """Reference seconds per wall second of `kind` work while the kernel took `samples`."""
    return (REFERENCE_S / statistics.mean(samples)) ** EXPONENTS[kind]

"""Machine-speed calibration for the timed intervals.

On a shared host the speed of one CPU changes by +-20% from one second to
the next (a fixed loop timed once a second for 40 s ran 810 to 1254 times
per second), and whole minutes run faster or slower.  To keep that out of the
metrics, every timed interval is bracketed by two runs of a fixed integer
loop, and the interval is rescaled to the speed at which that loop takes
REF_S seconds:

    scaled = seconds * REF_S / mean(loop before, loop after)

The loop allocates no objects the garbage collector tracks, so the state of
the program's heap does not change its time.  Raw seconds are kept alongside
in the result files.
"""

from __future__ import annotations

import time

LOOPS = 15000
REF_S = 0.002    # median of sample() on a 2-vCPU 2.1 GHz x86-64 container, Python 3.11


def sample() -> float:
    start = time.perf_counter()
    x = 1
    for _ in range(LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * REF_S * 2 / (before + after)

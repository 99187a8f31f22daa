"""Machine-speed calibration for `study_s`.

The shared 2-core box this benchmark was built on changes speed by half
or more over minutes, and the change hits the whole process alike: the raw
study times of ten back-to-back 20 s runs spread by 14-23% between their
quartiles on every workload, the same times scaled by a fixed kernel timed
next to them by 8-12%. `study_s` is therefore the wall time scaled by
REFERENCE_S / kernel time: seconds at the speed at which the kernel takes
REFERENCE_S. The raw wall time is printed beside it.

The kernel mixes interpreter work with small numpy calls, like the studies.
No a2gnet code runs in it, so a change to the package cannot move it; only
the machine can.
"""

from time import perf_counter

import numpy as np

# Median kernel time on the reference box (2-core Intel Xeon, Python 3.11).
REFERENCE_S = 0.008


def _kernel():
    table = {}
    acc = 0.0
    items = []
    for i in range(15000):
        key = i % 101
        table[key] = table.get(key, 0) + i
        acc += (i * 0.5) ** 0.5
        items.append(acc)
    items.sort()
    arr = np.arange(150.0)
    for _ in range(1200):
        arr = np.sqrt(arr * arr + 1.0)
    return table, items[-1], float(arr.sum())


def kernel_s(repeats: int) -> float:
    """Median seconds of the fixed kernel over `repeats` runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]

"""Host-speed calibration: a fixed numpy kernel that does not touch kepes.

On a shared host, co-tenant load changes how fast the same code runs: on a
2-vCPU Intel Xeon virtual machine, one workload's throughput moved by a
factor of 1.6 between runs minutes apart, with CPU time tracking wall time.  Timing this kernel between driver.run calls measures the host's
speed at that moment, and the benchmark scales its timings to the speed at
which the kernel takes ``REFERENCE_S``.  A change to kepes cannot move the
kernel, so it cannot move the scale.

The kernel mixes 24-element array calls (dispatch-bound, like the small
workloads) with 10^4-element arithmetic (like sod_large); the arrays are
small enough to leave the workloads' peak resident set alone.
"""

import time

import numpy as np

REFERENCE_S = 0.010
SMALL_CALLS = 750
LARGE_CALLS = 40


def calibrate() -> float:
    """Seconds the kernel takes now."""
    small = np.linspace(1.0, 2.0, 24)
    large = np.linspace(1.0, 2.0, 10_000)
    start = time.perf_counter()
    for _ in range(SMALL_CALLS):
        x = np.log(small) * small + np.sqrt(small)
        np.stack([x, np.where(x > 1.5, x, small)])
    for _ in range(LARGE_CALLS):
        x = np.log(large) * large + np.sqrt(large)
        np.where(x > 1.5, x, large)
    return time.perf_counter() - start

"""Time one workload set-up in a fresh interpreter.

Set-up is importing kepes, building every config of the workload
(preset + dataclasses.replace) and building each seeded initial state.
numpy is imported before the clock starts: it is a dependency, not kepes
set-up.  The last line holds the seconds taken and the mean of the
host-speed calibrations run just before and just after (see hostspeed.py).

    python3 perfbench/setup_probe.py --workload sod_large --seed 0
"""

import argparse
import time

import numpy  # noqa: F401  (imported before the clock on purpose)

import hostspeed
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    hostspeed.calibrate()  # the first numpy calls of a process run slower
    before = hostspeed.calibrate()
    start = time.perf_counter()
    workloads.import_kepes()
    cases = workloads.build_cases(args.workload)
    workloads.initial_states(cases, args.seed)
    seconds = time.perf_counter() - start
    after = hostspeed.calibrate()
    print(repr(seconds), repr(0.5 * (before + after)))


if __name__ == "__main__":
    main()

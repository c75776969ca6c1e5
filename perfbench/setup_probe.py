"""One benchmark set-up in a process of its own.

Imports kaf from the checkout, generates the workload's streams, builds the
filter and warms it up, then prints time.monotonic(). The parent takes the
time from just before it started this process to that stamp (CLOCK_MONOTONIC
is system-wide on Linux), so interpreter start-up and imports are counted.

    python3 perfbench/setup_probe.py <checkout root> <workload> <seed> <smoke 0|1>
"""

import os
import sys
import time


def main() -> None:
    root, name, seed, smoke = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import kaf
    from workloads import WORKLOADS, prepare

    prepare(kaf, WORKLOADS[name], seed, smoke)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()

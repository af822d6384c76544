"""Host-speed probe: times a fixed memory-bound kernel, over and over, on one CPU.

The benchmark's host is shared, and its speed drifts by up to half over
minutes; every CPU of the virtual machine slows together.  run.py runs this probe
on the second CPU while a worker runs on the first, and scales the
worker's times by REF_S / (median probe sample in the same interval).

Usage: python3 bench/probe.py <cpu>.  Prints "<monotonic end> <seconds>"
per sample, first line as soon as it is ready, until it is terminated.
"""

import os
import sys
import time

import numpy as np

# the median sample on the 2-CPU machine of bench/README.md's figures, while a
# worker runs on the other CPU; it only sets the scale, so that scaled
# times there read close to raw ones
REF_S = 0.019
GEMVS = 50  # 512 x 2048 matrix-vector products per sample: 8 MB read each


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 2048))
    v = rng.standard_normal(2048)
    while True:
        t0 = time.monotonic()
        for _ in range(GEMVS):
            a @ v
        t1 = time.monotonic()
        print(f"{t1!r} {t1 - t0!r}", flush=True)


if __name__ == "__main__":
    main()

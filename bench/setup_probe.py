"""Time the benchmark's set-up in a fresh interpreter and print it in seconds.

Set-up is importing hypershuffle (with numpy and scipy) plus building the
workload's inputs from the seed.  Usage:

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR [--tiny]
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.make(name, "--tiny" in sys.argv[4:]).setup(seed, workloads.Path(workdir))
print(repr(time.perf_counter() - t0))

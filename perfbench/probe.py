"""Time one set-up, then optionally run passes and report peak memory.

Usage: ``python3 perfbench/probe.py <workload> <seed> <passes>``. ``run.py``
runs it in a fresh interpreter; it prints the seconds taken to import
``povmcoarse`` and build the workload's inputs, then the peak resident
memory in MB after ``passes`` passes of the program alone.
"""

import time

_start = time.perf_counter()

import resource  # noqa: E402
import sys  # noqa: E402

from run import prepare_environment  # noqa: E402

prepare_environment()
from workloads import WORKLOADS  # noqa: E402  (imports povmcoarse and numpy)

workload = WORKLOADS[sys.argv[1]]
inputs = workload.build(int(sys.argv[2]))
setup_s = time.perf_counter() - _start
for _ in range(int(sys.argv[3])):
    workload.run_pass(inputs)
print(setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

"""One set-up sample in a fresh interpreter: the seconds from before
`import mksurf` until the workload's warm-up calls return.

Run by run.py; usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import env

env.use_checkout_source()
t0 = time.perf_counter()
import mksurf  # noqa: E402,F401  (timed)
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warmup()
elapsed = time.perf_counter() - t0
env.check_imported()
print(repr(elapsed))

"""One set-up probe: a fresh interpreter imports bairekit, builds the first
round of a workload's seeded inputs and prints the monotonic clock.

    python perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
"""

import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))

import workloads  # noqa: E402  (imports bairekit)

name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.make(name, here.parent, work)
workload.prepare()
workload.round(seed, 0)
print(repr(time.monotonic()))

"""Print the set-up time of one workload in a fresh interpreter.

Times ``import partycover`` plus the workload's first call, which builds
the program's lazy tables (``edge_list``, ``_edge_perm_tables``) for its n.
Usage: python3 bench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

t0 = time.perf_counter()
import partycover  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warm()
print(f"{time.perf_counter() - t0:.9f}")

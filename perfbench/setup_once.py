"""Time one set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_once.py WORKLOAD SEED

Set-up is importing the library, building the workload's groups and the
first request of each kind, which fills the lazy caches (families,
potential weights, quadrature rules, Weyl groups).
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

for op in workloads.setup_ops(sys.argv[1], int(sys.argv[2])):
    workloads.run_op(op)
print(time.perf_counter() - t0)

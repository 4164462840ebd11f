"""Time one set-up in a fresh interpreter: import safereach, build a workload.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload> <seed>
Prints one JSON object with ``setup_s`` and the workload's total ``states``.
The clock starts before ``safereach`` is imported, so the time covers the
import, the model builders with their ``Pomdp`` validation, and the random
generator.
"""

import json
import sys
import time

started = time.perf_counter()
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [f"{root}/src", f"{root}/tests"]

import workloads  # noqa: E402  (imports safereach and oracles)

built = workloads.build(name, seed)
elapsed = time.perf_counter() - started
print(json.dumps({"setup_s": elapsed, "states": built.states}))

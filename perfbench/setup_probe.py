"""Time erfs set-up in a fresh interpreter: the import plus one warm-up op.

Usage (from the repository root):
    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints ``{"setup_s": ...}``.  Building the workload's inputs from the seed
happens between the two timed parts and is not counted.
"""

import importlib
import json
import sys
import time

from harness import SRC, WORKLOADS


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    module, setup_import = WORKLOADS[name]
    sys.path.insert(0, SRC)  # the checkout's library, never an installed copy
    t0 = time.perf_counter()
    importlib.import_module(setup_import)
    t1 = time.perf_counter()
    wl = importlib.import_module(module)
    cases = wl.build(seed)
    t2 = time.perf_counter()
    wl.warm_op(cases)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

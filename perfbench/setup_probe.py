"""Time one fresh set-up: import seaweedcoh and build the ambient algebras.

    python3 perfbench/setup_probe.py SRC_DIR E:6 E:7

prints the seconds taken, interpreter start-up excluded.  Each sample runs
in its own process so that the import and `cli._ambient` caches start cold.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from seaweedcoh import cli  # noqa: E402

for item in sys.argv[2:]:
    type_label, rank = item.split(":")
    cli._ambient(type_label, int(rank))
print(repr(time.perf_counter() - start))

"""Memory probe: runs one relaysim operation in a fresh interpreter.

    PYTHONPATH=src python3 bench/memory_probe.py <relaysim flags>

Prints one JSON line: main's return code and wall time, and `peak_kib`,
how far the operation raised the peak RSS of this process, or of any
pool worker it started, above the peak after imports and set-up.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout

from relaysim.cli import main, resolve_settings


def peak_kib() -> int:
    """Peak RSS of this process or the largest child it has waited for.

    This process's own peak is read as VmHWM: its ru_maxrss starts at the
    RSS of the process that started it, which can be larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


resolve_settings(sys.argv[1:])
base = peak_kib()
start = time.perf_counter()
with redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
wall = time.perf_counter() - start
print(json.dumps({"rc": rc, "wall_s": wall, "peak_kib": peak_kib() - base}))

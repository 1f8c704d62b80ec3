"""Set-up probe: prints the wall-clock time at which a fresh interpreter
has imported numpy and relaysim and resolved the settings of argv.

    PYTHONPATH=src python3 bench/setup_probe.py <relaysim flags>
"""

import sys
import time

from relaysim.cli import resolve_settings

resolve_settings(sys.argv[1:])
print(repr(time.time()))

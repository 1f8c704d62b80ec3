"""Write each regression-corpus CSV's sha256 and size to a JSON manifest.

    PYTHONPATH=src python tools/csv_corpus.py manifest.json

The corpus is 264 command-line runs: sweeps at 1000, 200, 37 and 1100
trials per point, each at --lstep 10 and 2, and cdfs at 10 000, 600 and
1025 trials, in 4 scenario configs, at seeds 1, 2 and 2012 and at workers
1 and 2. relaysim is imported from sys.path, so PYTHONPATH picks the tree
under test. Run it on two trees and diff the manifests: equal manifests
mean byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from itertools import product
from pathlib import Path

from relaysim.cli import main

# Config-file text of each scenario: the defaults; up to 12 interferers;
# a blocked direct link under up to 6; no interference and N = 20.
CONFIGS = {
    "default": "",
    "interferers_0_12": "interferer_min = 0\ninterferer_max = 12\n",
    "blocked_0_6": "blocked_direct = true\ninterferer_min = 0\n"
                   "interferer_max = 6\n",
    "quiet_n20": "interferer_power_dbm = -inf\n"
                 "path_loss_coeff_db_per_decade = 20\n",
}
# (mode, trials, lstep): lstep None for a cdf at the default distance
RUNS = (*(("sweep", trials, lstep) for trials in (1000, 200, 37, 1100)
          for lstep in (10, 2)),
        *(("cdf", trials, None) for trials in (10_000, 600, 1025)))
SEEDS = (1, 2, 2012)
WORKERS = (1, 2)


def cases():
    """(label, config text, argv without --config and --out) of each run."""
    for (name, text), (mode, trials, lstep), seed, workers in product(
            CONFIGS.items(), RUNS, SEEDS, WORKERS):
        argv = ["--mode", mode, "--trials", str(trials), "--seed", str(seed),
                "--workers", str(workers)]
        step = ""
        if lstep is not None:
            argv += ["--lstep", str(lstep)]
            step = f"-lstep{lstep}"
        yield (f"{name}/{mode}-{trials}{step}-seed{seed}-w{workers}.csv",
               text, argv)


def manifest(runs) -> dict[str, list]:
    """{label: [sha256, size in bytes] of the CSV} of the runs, each run by
    cli.main in a temporary directory; RuntimeError names a run that
    fails."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv, config = Path(tmp, "run.csv"), Path(tmp, "run.conf")
        for label, text, argv in runs:
            config.write_text(text)
            argv = [*argv, "--config", str(config), "--out", str(csv)]
            with redirect_stdout(StringIO()):
                status = main(argv)
            if status:
                raise RuntimeError(f"{label}: relaysim {' '.join(argv)} "
                                   f"exited {status}")
            data = csv.read_bytes()
            digests[label] = [hashlib.sha256(data).hexdigest(), len(data)]
    return digests


def run(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("manifest", help="JSON file to write")
    args = p.parse_args(argv)
    digests = manifest(cases())
    Path(args.manifest).write_text(json.dumps(digests, indent=1) + "\n")
    size = sum(bytes_ for _, bytes_ in digests.values())
    print(f"{len(digests)} CSVs, {size} bytes -> {args.manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

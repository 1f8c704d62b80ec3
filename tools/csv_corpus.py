"""Write each regression-corpus CSV's sha256 and size to a JSON manifest.

    PYTHONPATH=src python tools/csv_corpus.py manifest.json

The corpus is 264 command-line runs: sweeps at 1000, 200, 37 and 1100
trials per point, each at --lstep 10 and 2, and cdfs at 10 000, 600 and
1025 trials, in 4 scenario configs, at seeds 1, 2 and 2012 and at workers
1 and 2. relaysim is imported from sys.path, so PYTHONPATH picks the tree
under test. Run it on two trees and diff the manifests: equal manifests
mean byte-identical CSVs. Beside each CSV, an entry "<label>#tables"
holds the sha256 and size of the float64 arrays the CSV was formatted
from (a sweep's distances and statistics, a cdf's sorted rows), which
%.6f would hide a last-bit change in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from itertools import product
from pathlib import Path

import numpy as np

from relaysim import cli
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


def _digest(*arrays: np.ndarray) -> list:
    """[sha256, size in bytes] of the float64 arrays' shapes and values."""
    sha = hashlib.sha256()
    for array in arrays:
        if array.dtype != np.float64:
            raise TypeError(f"expected float64 values, got {array.dtype}")
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return [sha.hexdigest(), sum(array.nbytes for array in arrays)]


@contextmanager
def _table_digests(digests: list):
    """While open, cli's CSV formatters each first append _digest of the
    arrays they format to digests: a sweep's distances and statistics, a
    cdf's rows in strategy order."""
    sweep, cdf = cli.format_sweep_csv, cli.format_cdf_csv

    def format_sweep_csv(results):
        distances, _, stats = results
        digests.append(_digest(np.array(distances, dtype=float), stats))
        return sweep(results)

    def format_cdf_csv(cdfs, fh):
        digests.append(_digest(*cdfs.values()))
        return cdf(cdfs, fh)

    cli.format_sweep_csv, cli.format_cdf_csv = format_sweep_csv, format_cdf_csv
    try:
        yield
    finally:
        cli.format_sweep_csv, cli.format_cdf_csv = sweep, cdf


def manifest(runs) -> dict[str, list]:
    """{label: [sha256, size in bytes] of the CSV, label + "#tables": the
    same of the arrays it was formatted from} of the runs, each run by
    cli.main in a temporary directory; RuntimeError names a run that
    fails."""
    digests, tables = {}, []
    with tempfile.TemporaryDirectory() as tmp, _table_digests(tables):
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
            (digests[f"{label}#tables"],) = tables
            tables.clear()
    return digests


def run(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("manifest", help="JSON file to write")
    args = p.parse_args(argv)
    digests = manifest(cases())
    Path(args.manifest).write_text(json.dumps(digests, indent=1) + "\n")
    csvs = [size for label, (_, size) in digests.items()
            if not label.endswith("#tables")]
    print(f"{len(csvs)} CSVs, {sum(csvs)} bytes, each with its tables' "
          f"digest -> {args.manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

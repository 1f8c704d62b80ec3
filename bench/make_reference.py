"""Regenerate reference.json, the table the output check compares with.

For every (strategy, distance) a workload reports, it stores the mean and
standard deviation of the per-trial spectral efficiency, taken from
relaysim's cdf mode (one CSV row per trial and strategy) at a seed no
benchmark operation uses (operations draw seeds below 2**32). The table
does not depend on the worker count, so it uses every usable CPU.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
from collections import defaultdict
from contextlib import redirect_stdout

import check
from run import BENCH, STRATEGIES, WORK, WORKLOADS, import_relaysim

SEED = 2**40 + 2012
TRIALS = 20_000
WORKERS = len(os.sched_getaffinity(0))


def distribution(distance: float,
                 config: str | None) -> dict[str, list[float]]:
    """[mean, std] of each strategy's per-trial SE at one distance."""
    import relaysim.cli
    out = WORK / "reference.csv"
    argv = ["--mode", "cdf", "--distance", f"{distance:g}",
            "--trials", str(TRIALS), "--seed", str(SEED),
            "--workers", str(WORKERS), "--strategies", ",".join(STRATEGIES),
            "--out", str(out)]
    if config:
        argv += ["--config", str(BENCH / config)]
    with redirect_stdout(io.StringIO()):
        if relaysim.cli.main(argv) != 0:
            raise SystemExit(f"relaysim failed: {argv}")
    samples = defaultdict(list)
    with open(out, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            strategy, value, _ = line.split(",")
            samples[strategy].append(float(value))
    out.unlink()
    return {s: [statistics.fmean(v), statistics.stdev(v)]
            for s, v in samples.items()}


def main() -> None:
    import_relaysim()
    WORK.mkdir(exist_ok=True)
    sweeps = [w for w in WORKLOADS.values() if w.mode == "sweep"]
    cdf = next(w for w in WORKLOADS.values() if w.mode == "cdf")
    sweep_points: dict = defaultdict(dict)
    for d in sorted({d for w in sweeps for d in w.distances()}):
        for s, stats in distribution(d, None).items():
            sweep_points[s][check.distance_key(d)] = stats
    cdf_points: dict = defaultdict(dict)
    for s, stats in distribution(cdf.distance_m, cdf.config).items():
        cdf_points[s][check.distance_key(cdf.distance_m)] = stats
    table = {
        "about": "per-trial spectral efficiency [mean, std] by strategy "
                 "and distance; regenerate with bench/make_reference.py",
        "seed": SEED,
        "sweep": {"trials": TRIALS, "scenario": "default",
                  "points": sweep_points},
        "cdf": {"trials": TRIALS, "scenario": cdf.config,
                "points": cdf_points},
    }
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()

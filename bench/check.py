"""Output check for benchmark operations.

A CSV passes when its shape matches the CSV schema of PAPER.md (header,
row count, sort order, finite non-negative values) and each strategy's
mean spectral efficiency (SE) agrees with the stored reference table
within a Monte Carlo tolerance: Z standard errors of the difference
between the run's mean and the reference mean, both derived from the
reference spread.

Means are keyed by (strategy, distance) in both modes; a cdf run has the
single distance it was run at.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SWEEP_HEADER = "strategy,distance_m,mean_se,p10_se,p50_se,p90_se"
CDF_HEADER = "strategy,spectral_efficiency,cdf"
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Standard errors a mean may sit from its reference. At Z = 6 a correct
# mean fails with probability ~2e-9, so the ~10^6 comparisons of seventy
# 30 s runs stay clean.
Z = 6.0

Means = dict[tuple[str, str], float]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def distance_key(d: float) -> str:
    return f"{d:g}"


def compare_means(means: Means, n: int, table: dict) -> list[str]:
    """Problems for means of n trials each against a reference section."""
    problems = []
    for (s, d), mean in means.items():
        ref_mean, ref_std = table["points"][s][d]
        # Z standard errors of (mean - reference mean), plus CSV rounding.
        tol = Z * ref_std * math.sqrt(1.0 / n + 1.0 / table["trials"]) + 1e-6
        if abs(mean - ref_mean) > tol:
            problems.append(f"{s} at {d} m: mean SE {mean:.4f} outside "
                            f"{ref_mean:.4f} +/- {tol:.4f} (n={n})")
    return problems


def _values(fields: list[str], where: str, problems: list[str]) -> list[float]:
    out = []
    for text in fields:
        try:
            v = float(text)
        except ValueError:
            problems.append(f"{where}: not a number: {text!r}")
            continue
        if not math.isfinite(v) or v < 0:
            problems.append(f"{where}: value {v} not finite and >= 0")
        out.append(v)
    return out


def _rows(text: str, header: str, problems: list[str]) -> list[list[str]]:
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
    lines = text.rstrip("\n").split("\n")
    if lines[0] != header:
        problems.append(f"header {lines[0]!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_sweep(text: str, strategies: list[str], distances: list[float],
                trials: int, reference: dict) -> tuple[list[str], Means]:
    """Check a sweep CSV; return (problems, mean SE per key)."""
    problems: list[str] = []
    rows = _rows(text, SWEEP_HEADER, problems)
    want = [(s, distance_key(d)) for s in sorted(strategies) for d in distances]
    if len(rows) != len(want):
        problems.append(f"{len(rows)} rows, expected {len(want)}")
    means: Means = {}
    for lineno, (fields, key) in enumerate(zip(rows, want), start=2):
        where = f"line {lineno}"
        if len(fields) != 6:
            problems.append(f"{where}: {len(fields)} fields, expected 6")
            continue
        if tuple(fields[:2]) != key:
            problems.append(f"{where}: key {fields[0]},{fields[1]} out of "
                            f"order, expected {key[0]},{key[1]}")
            continue
        values = _values(fields[2:], where, problems)
        if len(values) != 4:
            continue
        mean, p10, p50, p90 = values
        if not p10 <= p50 <= p90:
            problems.append(f"{where}: percentiles not ordered")
        means[key] = mean
    problems += compare_means(means, trials, reference["sweep"])
    return problems, means


def check_cdf(text: str, strategies: list[str], distance: float,
              trials: int, reference: dict) -> tuple[list[str], Means]:
    """Check a cdf CSV; return (problems, mean SE per key)."""
    problems: list[str] = []
    rows = _rows(text, CDF_HEADER, problems)
    if len(rows) != trials * len(strategies):
        problems.append(f"{len(rows)} rows, expected "
                        f"{trials * len(strategies)}")
    cdf_column = [f"{i / trials:.6f}" for i in range(1, trials + 1)]
    means: Means = {}
    for j, s in enumerate(sorted(strategies)):
        block = rows[j * trials:(j + 1) * trials]
        where = f"strategy {s}"
        if len(block) != trials or any(len(f) != 3 for f in block):
            problems.append(f"{where}: malformed or short block")
            continue
        if any(f[0] != s for f in block):
            problems.append(f"{where}: rows out of strategy order")
            continue
        if [f[2] for f in block] != cdf_column:
            problems.append(f"{where}: cdf column is not i/n")
        values = _values([f[1] for f in block], where, problems)
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"{where}: samples not sorted")
        if values:
            means[(s, distance_key(distance))] = math.fsum(values) / len(values)
    problems += compare_means(means, trials, reference["cdf"])
    return problems, means

"""Monte Carlo engine: trials, distance sweeps, empirical CDFs.

Trials come in the fixed blocks of the RNG contract
(scenario.BLOCK_TRIALS), each drawn from its own derived random stream,
so any range of whole blocks can be evaluated anywhere and give the same
bytes. The draws do not depend on the distance (scenario.draw_block), so
propagation.link_sinrs places a block at several distances in one numpy
pass of about ROWS trial-points, at most 1.5 x ROWS: the run splits its
distances into the nearest whole number of such calls, balanced to
within one point. A run (one point, a sweep or a CDF) opens at most one
process pool; its work items are ranges of whole ROWS over every group,
so any worker count makes the serial run's draws and calls. A serial
run, and one of at most ROWS trials, is one item evaluated in this
process. Each group's items are joined, in trial order, into one
C-contiguous (points, strategies, trials) array and handed off with the
group's distances as floats, bit-identical for any worker count. Sweeps
sort and aggregate each group in _sweep_stats; a CDF sorts its one point.
"""

from __future__ import annotations

import math
import numbers
import os
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .propagation import link_sinrs
from .scenario import BLOCK_TRIALS, ScenarioConfig, draw_block
from .strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

# Work items per pool process: several, so that processes finishing early
# take over the rest, yet few, since each item costs a round trip.
ITEMS_PER_WORKER = 4
# About the trial-points per numpy call (at most 1.5x), and the unit of
# pooled work items. It must be a whole number of contract blocks, or
# draw_block redraws the block at each call boundary. More rows per call
# cost less per row, but every call's arrays grow with them, under
# bench/run.py's +5% peak_rss_mib bound. Against 2 blocks, 4 blocks moved
# the memory probes (bench/memory_probe.py, 7 seeds) of sweep_w1, cdf_w1
# and fine_sweep_w2 by -1.3%, +1.5% and +3.1%: fine_sweep_w2's operation,
# 46 points of 200 trials, peaks in strategy_rates. With balanced groups,
# 8 and 9 blocks, trials per call kept at 4 blocks, read +2.6% to +5.3%
# there in two measurements: less than the metric drifts on unchanged code.
ROWS = 4 * BLOCK_TRIALS


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool, imported on its first use, so
    that a serial run never imports it or multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _rank(p: float, n: int) -> int:
    """0-based index of the nearest-rank p-th percentile of n sorted
    samples: ceil(p*n/100), 1-based, clamped to [1, n]."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    if n < 1:
        raise ValueError("cannot take a percentile of zero samples")
    return min(max(math.ceil(p * n / 100.0), 1), n) - 1


def percentile(sorted_samples: np.ndarray, p: float) -> float:
    """Nearest-rank percentile of samples in ascending order, such as a
    row of run_cdf: element at index ceil(p*n/100), 1-based, clamped to
    [1, n]."""
    return float(sorted_samples[_rank(p, len(sorted_samples))])


class SummaryStats(NamedTuple):
    """One strategy at one distance: the mean of the sorted samples and
    their nearest-rank percentiles."""

    mean: float
    p10: float
    p50: float
    p90: float


def _item_tables(config: ScenarioConfig, groups: list[np.ndarray],
                 start: int, stop: int, kinds: tuple[StrategyKind, ...],
                 ) -> Iterator[np.ndarray]:
    """The C-contiguous (len(at), len(kinds), stop-start) array of trials
    [start, stop) at each group `at` of distances, which replace
    config.distance_m, in order; all strategies of a trial share its
    draw. Each call places min(stop - start, ROWS) trials, drawn in one
    range; a later group reuses them. A call whose SINRs or rates
    overflow, or come to inf or NaN, raises ValueError."""
    rows = min(stop - start, ROWS)
    blocks = (draw_block(config, first, min(first + rows, stop))
              for first in range(start, stop, rows))
    if len(groups) > 1:
        blocks = list(blocks)
    for at in groups:
        out = np.empty((len(at), len(kinds), stop - start))
        # no name or zip tuple holds a block while the next one is drawn
        placed = iter(blocks)
        for first in range(0, stop - start, rows):
            try:
                with np.errstate(all="raise", under="ignore"):
                    strategy_rates(link_sinrs(next(placed), config, at), kinds,
                                   out[..., first:first + rows].swapaxes(1, 2))
            except FloatingPointError as exc:
                raise ValueError(f"SINRs out of floating-point range ({exc}); "
                                 "check the powers in dBm") from None
        yield out


def _run_item(config: ScenarioConfig, groups: list[np.ndarray], start: int,
              stop: int, kinds: tuple[StrategyKind, ...]) -> list[np.ndarray]:
    """_item_tables as a list: one pool work item."""
    return list(_item_tables(config, groups, start, stop, kinds))


def _tables(config: ScenarioConfig, distances_m: Sequence[float],
            trials: int, kinds: tuple[StrategyKind, ...], workers: int,
            ) -> Iterator[tuple[list[float], np.ndarray]]:
    """One (distances, table) pair per group of distances_m, in order: the
    group as a list of floats, which replace config.distance_m, and its own
    C-contiguous (points, len(kinds), trials) array of trials 0..trials-1.
    The run fixes the groups: round(points / (ROWS // min(trials, ROWS)))
    or one, balanced to within one point, each at most 1.5 x ROWS rows.

    A work item is a range of whole ROWS over every group, up to
    ITEMS_PER_WORKER items per process. One pool serves them all, capped at
    os.cpu_count() and at the number of items, and is shut down before the
    first pair; a cap of one runs serially. It alone reads and checks a run's
    inputs, the one check of trials and workers (integers >= 1) included."""
    for name, value in (("trials", trials), ("workers", workers)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if not kinds:
        raise ValueError("at least one strategy is required")
    if not all(isinstance(kind, StrategyKind) for kind in kinds) or \
            len(set(kinds)) < len(kinds):
        raise ValueError("strategies must be distinct StrategyKind members")
    distances = np.array(distances_m)  # ValueError if ragged
    if distances.ndim != 1 or not len(distances):
        raise ValueError("distances_m must be non-empty and 1-D")
    # float() reads text and bools, and numpy makes [True, 2.0] floats
    if distances.dtype.kind not in "iuf" or \
            any(isinstance(d, (bool, np.bool_)) for d in distances_m):
        raise ValueError("distances_m must be numbers, not text or bools")
    distances = distances.astype(float)
    values = distances.tolist()
    if not all(math.isfinite(d) and d > 0 for d in values):
        raise ValueError("distance_m must be positive and finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("distances must be strictly increasing")
    n = len(distances)
    calls = max(1, round(n / (ROWS // min(trials, ROWS))))
    groups = [distances[n * i // calls:n * (i + 1) // calls]
              for i in range(calls)]
    # a run of at most ROWS trials is one item whatever the cap
    workers = min(workers, os.cpu_count() or 1) \
        if workers > 1 and trials > ROWS else 1
    chunks = -(-trials // ROWS)
    step = -(-chunks // (ITEMS_PER_WORKER * workers)) * ROWS
    starts = range(0, trials, step)
    workers = min(workers, len(starts))
    if workers <= 1:
        tables = _item_tables(config, groups, 0, trials, kinds)
    else:
        stops = [min(start + step, trials) for start in starts]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_item, repeat(config), repeat(groups),
                                  starts, stops, repeat(kinds)))
        tables = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    for at in groups:  # no zip tuple holds the previous group's table
        yield at.tolist(), next(tables)


def run_point(config: ScenarioConfig, trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Per-trial spectral efficiencies at one distance, in trial order,
    independent of the worker count."""
    kinds = tuple(strategies)
    ((_, (table,)),) = _tables(config, (config.distance_m,), trials, kinds,
                               workers)
    return dict(zip(kinds, table))


def _sweep_stats(config: ScenarioConfig, distances_m: Sequence[float],
                 trials: int, kinds: tuple[StrategyKind, ...], workers: int):
    """(distances as floats, kinds, stats): run_sweep's statistics as one
    C-contiguous (points, len(kinds), 4) array of mean, p10, p50 and p90."""
    distances, stats = [], []
    for points, group in _tables(config, distances_m, trials, kinds, workers):
        group.sort(axis=-1)
        ranks = [_rank(p, group.shape[-1]) for p in (10, 50, 90)]
        # np.mean over the last axis of a C-contiguous array sums each row
        # pairwise, as np.mean of that row alone does
        stats.append(np.concatenate((group.mean(axis=-1, keepdims=True),
                                     group[..., ranks]), axis=-1))
        distances += points
        del group  # freed before the next group is computed
    return distances, kinds, np.concatenate(stats)


def run_sweep(config: ScenarioConfig, distances_m: Sequence[float],
              trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1,
              ) -> dict[tuple[StrategyKind, float], SummaryStats]:
    """_sweep_stats' summary statistics per (strategy, distance) over trials
    at each distance, as a float, which replaces config.distance_m."""
    distances, kinds, stats = _sweep_stats(config, distances_m, trials,
                                           tuple(strategies), workers)
    return {(kind, distance): SummaryStats._make(values)
            for distance, row in zip(distances, stats.tolist())
            for kind, values in zip(kinds, row)}


def run_cdf(config: ScenarioConfig, trials: int,
            strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
            workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Empirical spectral-efficiency CDF per strategy at one distance:
    run_point's per-trial values, each row sorted in place, the i-th
    (1-based) of n at F = i / n."""
    cdfs = run_point(config, trials, strategies, workers)
    for row in cdfs.values():
        row.sort()
    return cdfs

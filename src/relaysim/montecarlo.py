"""Monte Carlo engine: trials, distance sweeps, empirical CDFs.

Trials come in the fixed blocks of the RNG contract
(scenario.BLOCK_TRIALS), each drawn from its own derived random stream,
so any range of whole blocks can be evaluated anywhere and give the same
bytes. The draws do not depend on the distance (scenario.draw_block).
propagation.link_sinrs places a block at one distance or at several in
one numpy pass: a whole block goes one distance at a time, a block of
fewer trials at as many distances as fit into 2 * BLOCK_TRIALS - 1 rows.
A run (one point, a sweep or a CDF) opens at most one process pool. Its
work items are ranges of whole blocks over every distance of the run, a
few per process; an item draws each of its blocks once, for all
distances. A run of fewer than two blocks, and a serial run, is one item
evaluated in this process. The results come back in item order and are
stacked per distance, in trial order, before any aggregation, so results
are bit-identical for any worker count. A sweep aggregates each point
with one sort over its (strategies, trials) table.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .propagation import link_sinrs
from .scenario import BLOCK_TRIALS, ScenarioConfig, draw_block
from .strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

# Work items per pool process: several, so that processes finishing early
# take over the rest, yet few, since each item costs a round trip.
ITEMS_PER_WORKER = 4


@dataclass(frozen=True)
class EmpiricalCdf:
    sorted_samples: np.ndarray

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "EmpiricalCdf":
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("cannot build a CDF from zero samples")
        return cls(arr)

    @property
    def n(self) -> int:
        return self.sorted_samples.size

    def cdf_at(self, x: float) -> float:
        """F(x) = (#samples <= x) / n, right-continuous."""
        return float(np.searchsorted(self.sorted_samples, x, side="right")
                     / self.n)


def _rank(p: float, n: int) -> int:
    """0-based index of the nearest-rank p-th percentile of n sorted
    samples: ceil(p*n/100), 1-based, clamped to [1, n]."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    return min(max(math.ceil(p * n / 100.0), 1), n) - 1


def percentile(cdf: EmpiricalCdf, p: float) -> float:
    """Nearest-rank percentile: element at index ceil(p*n/100), 1-based,
    clamped to [1, n]."""
    return float(cdf.sorted_samples[_rank(p, cdf.n)])


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    p10: float
    p50: float
    p90: float

    @property
    def spread(self) -> float:
        return self.p90 - self.p10

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "SummaryStats":
        (stats,) = _summaries(np.asarray(samples, dtype=float)[None])
        return stats


def _summaries(rows: np.ndarray) -> list[SummaryStats]:
    """SummaryStats of each row of a C-contiguous (k, n) array, with one
    sort for all rows. np.mean over the last axis of a C-contiguous array
    sums each row pairwise, as np.mean of that row alone does, so a row's
    mean does not depend on the other rows."""
    n = rows.shape[-1]
    if n == 0:
        raise ValueError("cannot build a CDF from zero samples")
    ordered = np.sort(rows, axis=-1)
    ranks = [_rank(p, n) for p in (10, 50, 90)]
    return [SummaryStats(mean, *quantiles) for mean, quantiles in
            zip(np.mean(ordered, axis=-1).tolist(),
                ordered[:, ranks].tolist())]


def _points(config: ScenarioConfig,
            distances_m: Sequence[float]) -> list[ScenarioConfig]:
    """config's scenario at each distance as a plain ScenarioConfig, so
    that a subclass's own fields and checks (cli.Settings) are neither
    re-run per distance nor sent with every work item."""
    values = {f.name: getattr(config, f.name) for f in fields(ScenarioConfig)}
    return [ScenarioConfig(**{**values, "distance_m": d}) for d in distances_m]


def _item_tables(configs: Sequence[ScenarioConfig], start: int, stop: int,
                 kinds: tuple[StrategyKind, ...]) -> Iterator[np.ndarray]:
    """Each config's (stop-start, len(kinds)) table of trials [start,
    stop), in config order, as the transpose of a C-contiguous
    (len(kinds), stop-start) array; all strategies of a trial share its
    draw. The configs differ in distance_m alone.

    Draws do not depend on the distance, so each block is drawn once and
    kept for all configs; a one-config item draws each block as it
    evaluates it and keeps nothing. A block of `rows` trials is placed at
    max(1, (2 * BLOCK_TRIALS - 1) // rows) consecutive distances per
    call, and its rates at the later ones are kept until their tables are
    filled: a short block (a run of few trials, or a short last block)
    costs one numpy pass per up to 2 * BLOCK_TRIALS - 1 rows, not one per
    distance. A whole block is placed at one distance at a time, so only
    one short block's packed rates are ever kept. bench/memory_probe.py
    at sweep_w1's memory size (10 points x 1000 trials, whose 232-trial
    last block goes two distances per call; 2-vCPU host), medians of 7
    runs with the modules compiled at import: 6.95 MiB at a 256-row
    budget with every interferer slot's power computed, 7.08 MiB (+1.9%)
    at this budget, and, packing whole blocks too, 7.17 MiB (+3.2%) at
    512 rows and 7.56 MiB (+8.9%) at 1024; with fresh .pyc files 7.54,
    7.66 (+1.6%), 7.63 (+1.2%) and 8.01 MiB (+6.2%)."""
    distances = np.array([c.distance_m for c in configs])
    blocks = (draw_block(configs[0], first, min(first + BLOCK_TRIALS, stop))
              for first in range(start, stop, BLOCK_TRIALS))
    if len(configs) > 1:
        blocks = list(blocks)
    packed = {}  # a short block's first row -> its rates at the group
    for i in range(len(configs)):
        out = np.empty((len(kinds), stop - start))
        for first, block in zip(range(0, stop - start, BLOCK_TRIALS), blocks):
            group = max(1, (2 * BLOCK_TRIALS - 1) // len(block.carrier_mhz))
            if i % group == 0:
                rates = strategy_rates(link_sinrs(
                    block, configs[0], distances[i:i + group]), kinds)
                if group > 1:
                    packed[first] = rates
            else:
                rates = packed[first]
            out[:, first:first + BLOCK_TRIALS] = rates[i % group].T
        yield out.T


def _run_item(configs: Sequence[ScenarioConfig], start: int, stop: int,
              kinds: tuple[StrategyKind, ...]) -> list[np.ndarray]:
    """_item_tables as a list: one pool work item."""
    return list(_item_tables(configs, start, stop, kinds))


def _tables(configs: Sequence[ScenarioConfig], trials: int,
            kinds: tuple[StrategyKind, ...], workers: int,
            ) -> Iterator[np.ndarray]:
    """Each config's (trials, len(kinds)) table of trials 0..trials-1, in
    config order, as the transpose of a C-contiguous (len(kinds), trials)
    array. The configs differ in distance_m alone.

    A work item is a range of whole BLOCK_TRIALS blocks over every
    config, up to ITEMS_PER_WORKER items per process. One pool serves
    them all, capped at os.cpu_count() and at the number of items; a cap
    of one runs serially, as one item. The pool is shut down before the
    first table is yielded."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not kinds:
        raise ValueError("at least one strategy is required")
    workers = min(workers, os.cpu_count() or 1)
    wanted = ITEMS_PER_WORKER * workers
    blocks = -(-trials // BLOCK_TRIALS)
    step = -(-blocks // min(blocks, wanted)) * BLOCK_TRIALS
    starts = range(0, trials, step)
    workers = min(workers, len(starts))
    if workers <= 1:
        yield from _item_tables(configs, 0, trials, kinds)
        return
    stops = [min(start + step, trials) for start in starts]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_item, repeat(configs), starts, stops,
                              repeat(kinds)))
    for tables in zip(*parts):
        yield np.concatenate([t.T for t in tables], axis=1).T


def run_point(config: ScenarioConfig, trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Per-trial spectral efficiencies at one distance, in trial order,
    independent of the worker count."""
    kinds = tuple(strategies)
    (table,) = _tables(_points(config, (config.distance_m,)), trials, kinds,
                       workers)
    return {kind: table[:, j] for j, kind in enumerate(kinds)}


def run_sweep(config: ScenarioConfig, distances_m: Sequence[float],
              trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1,
              ) -> dict[tuple[StrategyKind, float], SummaryStats]:
    """Summary statistics per (strategy, distance) over trials at each of
    the distances, which replace config.distance_m. Each point is
    aggregated as soon as its table is complete, with one sort."""
    if not distances_m:
        raise ValueError("distances_m must be non-empty")
    if any(b <= a for a, b in zip(distances_m, distances_m[1:])):
        raise ValueError("distances must be strictly increasing")
    kinds = tuple(strategies)
    tables = _tables(_points(config, distances_m), trials, kinds, workers)
    results: dict[tuple[StrategyKind, float], SummaryStats] = {}
    for table, distance in zip(tables, distances_m):
        for kind, stats in zip(kinds, _summaries(table.T)):
            results[(kind, distance)] = stats
    return results


def run_cdf(config: ScenarioConfig, trials: int,
            strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
            workers: int = 1) -> dict[StrategyKind, EmpiricalCdf]:
    """Empirical spectral-efficiency CDF per strategy at one distance."""
    per_kind = run_point(config, trials, strategies, workers)
    return {kind: EmpiricalCdf.from_samples(samples)
            for kind, samples in per_kind.items()}

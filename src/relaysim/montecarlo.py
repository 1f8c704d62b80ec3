"""Monte Carlo engine: trials, distance sweeps, empirical CDFs.

Every trial draws from its own derived random stream, so any contiguous
range of trials can be evaluated anywhere and give the same bytes. The
draws do not depend on the distance (scenario.draw_block), and
propagation.link_sinrs places them at each point. A run (one point, a
sweep or a CDF) opens at most one process pool. Its work items are
ranges of whole BLOCK_TRIALS blocks over every distance of the run, a
few per process; an item draws each of its blocks once, for all
distances. A run of fewer than two blocks, and a serial run, is one item
evaluated in this process. The results come back in item order and are
stacked per distance, in trial order, before any aggregation, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .propagation import link_sinrs
from .scenario import ScenarioConfig, draw_block
from .strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

# Trials drawn and evaluated together. Larger blocks spread numpy's
# per-call cost over more trials but hold more temporaries at once; of
# the sizes 16 to 1024, 64 gave the lowest peak RSS of a run in
# bench/memory_probe.py at the benchmark's sizes.
BLOCK_TRIALS = 64
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


def percentile(cdf: EmpiricalCdf, p: float) -> float:
    """Nearest-rank percentile: element at index ceil(p*n/100), 1-based,
    clamped to [1, n]."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    rank = min(max(math.ceil(p * cdf.n / 100.0), 1), cdf.n)
    return float(cdf.sorted_samples[rank - 1])


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
        cdf = EmpiricalCdf.from_samples(samples)
        return cls(float(np.mean(cdf.sorted_samples)),
                   percentile(cdf, 10), percentile(cdf, 50),
                   percentile(cdf, 90))


def _item_tables(configs: Sequence[ScenarioConfig], start: int, stop: int,
                 kinds: tuple[StrategyKind, ...]) -> Iterator[np.ndarray]:
    """Each config's (stop-start, len(kinds)) table of trials [start,
    stop), in config order; all strategies of a trial share its draw.

    Draws do not depend on the distance, so each block is drawn once and
    kept for all configs; a one-config item draws each block as it
    evaluates it and keeps nothing."""
    blocks = (draw_block(configs[0], first, min(first + BLOCK_TRIALS, stop))
              for first in range(start, stop, BLOCK_TRIALS))
    if len(configs) > 1:
        blocks = list(blocks)
    for config in configs:
        out = np.empty((stop - start, len(kinds)))
        for first, block in zip(range(0, stop - start, BLOCK_TRIALS), blocks):
            out[first:first + BLOCK_TRIALS] = strategy_rates(
                link_sinrs(block, config), kinds)
        yield out


def _run_item(configs: Sequence[ScenarioConfig], start: int, stop: int,
              kinds: tuple[StrategyKind, ...]) -> list[np.ndarray]:
    """_item_tables as a list: one pool work item."""
    return list(_item_tables(configs, start, stop, kinds))


def _tables(configs: Sequence[ScenarioConfig], trials: int,
            kinds: tuple[StrategyKind, ...], workers: int,
            ) -> Iterator[np.ndarray]:
    """Each config's (trials, len(kinds)) table of trials 0..trials-1, in
    config order.

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
        yield np.vstack(tables)


def run_point(config: ScenarioConfig, trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Per-trial spectral efficiencies at one distance, in trial order,
    independent of the worker count."""
    kinds = tuple(strategies)
    (table,) = _tables((config,), trials, kinds, workers)
    return {kind: table[:, j] for j, kind in enumerate(kinds)}


def run_sweep(config: ScenarioConfig, distances_m: Sequence[float],
              trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1,
              ) -> dict[tuple[StrategyKind, float], SummaryStats]:
    """Summary statistics per (strategy, distance) over trials at each of
    the distances, which replace config.distance_m. Each point is
    aggregated as soon as its table is complete."""
    if not distances_m:
        raise ValueError("distances_m must be non-empty")
    if any(b <= a for a, b in zip(distances_m, distances_m[1:])):
        raise ValueError("distances must be strictly increasing")
    kinds = tuple(strategies)
    tables = _tables([replace(config, distance_m=d) for d in distances_m],
                     trials, kinds, workers)
    results: dict[tuple[StrategyKind, float], SummaryStats] = {}
    for table, distance in zip(tables, distances_m):
        for j, kind in enumerate(kinds):
            results[(kind, distance)] = SummaryStats.from_samples(table[:, j])
    return results


def run_cdf(config: ScenarioConfig, trials: int,
            strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
            workers: int = 1) -> dict[StrategyKind, EmpiricalCdf]:
    """Empirical spectral-efficiency CDF per strategy at one distance."""
    per_kind = run_point(config, trials, strategies, workers)
    return {kind: EmpiricalCdf.from_samples(samples)
            for kind, samples in per_kind.items()}

"""Monte Carlo engine: trials, distance sweeps, empirical CDFs.

Trials come in the fixed blocks of the RNG contract
(scenario.BLOCK_TRIALS), each drawn from its own derived random stream,
so any range of whole blocks can be evaluated anywhere and give the same
bytes. The draws do not depend on the distance (scenario.draw_block), so
propagation.link_sinrs places a block at one distance or at several in
one numpy pass of at most ROWS trial-points, which is also the unit of
work. A run (one point, a sweep or a CDF) opens at most one process
pool; its work items are ranges of whole ROWS over every distance, a few
per process, so any worker count draws the serial run's ranges, and an
item draws each range once, for all distances. A serial run, and one of
at most ROWS trials at any number of distances, is one item evaluated
in this process. The results come back in item order and are joined
per distance, in trial order, into one C-contiguous (strategies,
trials) table per point before any aggregation, so results are
bit-identical for any worker count. A sweep and a CDF sort each
point's rows in place, once (_sorted): a sweep's summaries and a CDF's
rows both read that sorted table.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .propagation import link_sinrs
from .scenario import BLOCK_TRIALS, ScenarioConfig, draw_block
from .strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

# Work items per pool process: several, so that processes finishing early
# take over the rest, yet few, since each item costs a round trip.
ITEMS_PER_WORKER = 4
# Trial-points per numpy call, and the unit of pooled work items. It must
# be a whole number of contract blocks, or draw_block redraws the block
# at each call boundary.
ROWS = 2 * BLOCK_TRIALS


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


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    p10: float
    p50: float
    p90: float

    @property
    def spread(self) -> float:
        return self.p90 - self.p10


def _sorted(table: np.ndarray) -> np.ndarray:
    """table, with each row sorted in place: the one sort of a point. Each
    table _tables yields is its caller's own, so none is copied."""
    table.sort(axis=-1)
    return table


def _summaries(rows: np.ndarray) -> list[SummaryStats]:
    """SummaryStats of each sorted row of a C-contiguous (k, n) array.
    np.mean over the last axis of a C-contiguous array sums each row
    pairwise, as np.mean of that row alone does, so a row's mean does not
    depend on the other rows."""
    ranks = [_rank(p, rows.shape[-1]) for p in (10, 50, 90)]
    return [SummaryStats(mean, *quantiles) for mean, quantiles in
            zip(np.mean(rows, axis=-1).tolist(), rows[:, ranks].tolist())]


def _item_tables(config: ScenarioConfig, distances: np.ndarray, start: int,
                 stop: int, kinds: tuple[StrategyKind, ...],
                 ) -> Iterator[np.ndarray]:
    """The C-contiguous (len(kinds), stop-start) table of trials [start,
    stop) at each of the distances, which replace config.distance_m, in
    order; all strategies of a trial share its draw.

    Each call places rows = min(stop - start, ROWS) trials, drawn in one
    range, at ROWS // rows distances; a later group reuses them."""
    rows = min(stop - start, ROWS)
    group = ROWS // rows
    blocks = (draw_block(config, first, min(first + rows, stop))
              for first in range(start, stop, rows))
    if len(distances) > group:
        blocks = list(blocks)
    for i in range(0, len(distances), group):
        at = distances[i:i + group]
        out = np.empty((len(at), len(kinds), stop - start))
        for first, block in zip(range(0, stop - start, rows), blocks):
            rates = strategy_rates(link_sinrs(block, config, at), kinds)
            out[..., first:first + rows] = rates.transpose(0, 2, 1)
        yield from out


def _run_item(config: ScenarioConfig, distances: np.ndarray, start: int,
              stop: int, kinds: tuple[StrategyKind, ...]) -> list[np.ndarray]:
    """_item_tables as a list: one pool work item."""
    return list(_item_tables(config, distances, start, stop, kinds))


def _tables(config: ScenarioConfig, distances_m: Sequence[float],
            trials: int, kinds: tuple[StrategyKind, ...], workers: int,
            ) -> Iterator[np.ndarray]:
    """The C-contiguous (len(kinds), trials) table of trials 0..trials-1
    at each of distances_m, which replace config.distance_m, in order.
    Each table is its caller's own: no other table shares its memory.

    A work item is a range of whole ROWS over every distance, up to
    ITEMS_PER_WORKER items per process. One pool serves them all, capped
    at os.cpu_count() and at the number of items; a cap of one runs
    serially, as one item. The pool is shut down before the first table
    is yielded."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not kinds:
        raise ValueError("at least one strategy is required")
    distances = np.array(distances_m, dtype=float)
    workers = min(workers, os.cpu_count() or 1)
    chunks = -(-trials // ROWS)
    step = -(-chunks // min(chunks, ITEMS_PER_WORKER * workers)) * ROWS
    starts = range(0, trials, step)
    workers = min(workers, len(starts))
    if workers <= 1:
        yield from _item_tables(config, distances, 0, trials, kinds)
        return
    stops = [min(start + step, trials) for start in starts]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_item, repeat(config), repeat(distances),
                              starts, stops, repeat(kinds)))
    for tables in zip(*parts):
        yield np.concatenate(tables, axis=1)


def run_point(config: ScenarioConfig, trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Per-trial spectral efficiencies at one distance, in trial order,
    independent of the worker count."""
    kinds = tuple(strategies)
    (table,) = _tables(config, (config.distance_m,), trials, kinds, workers)
    return dict(zip(kinds, table))


def run_sweep(config: ScenarioConfig, distances_m: Sequence[float],
              trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1,
              ) -> dict[tuple[StrategyKind, float], SummaryStats]:
    """Summary statistics per (strategy, distance) over trials at each of
    the distances, which replace config.distance_m. Each point is
    aggregated as soon as its table is complete, from its sorted rows."""
    if len(distances_m) == 0:
        raise ValueError("distances_m must be non-empty")
    if any(b <= a for a, b in zip(distances_m, distances_m[1:])):
        raise ValueError("distances must be strictly increasing")
    if not all(math.isfinite(d) and d > 0 for d in distances_m):
        raise ValueError("distance_m must be positive and finite")
    kinds = tuple(strategies)
    tables = _tables(config, distances_m, trials, kinds, workers)
    results: dict[tuple[StrategyKind, float], SummaryStats] = {}
    for table, distance in zip(tables, distances_m):
        for kind, stats in zip(kinds, _summaries(_sorted(table))):
            results[(kind, distance)] = stats
    return results


def run_cdf(config: ScenarioConfig, trials: int,
            strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
            workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Empirical spectral-efficiency CDF per strategy at one distance:
    the per-trial values in ascending order, the i-th (1-based) of n at
    F = i / n."""
    kinds = tuple(strategies)
    (table,) = _tables(config, (config.distance_m,), trials, kinds, workers)
    return dict(zip(kinds, _sorted(table)))

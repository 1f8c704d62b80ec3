"""Monte Carlo engine: trials, distance sweeps, empirical CDFs.

Trials are independent work items with per-trial derived random streams,
so the engine may split them over any number of processes and still
produce bit-identical results: outputs are keyed by trial index and
reassembled in order before any aggregation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .propagation import link_sinrs
from .scenario import ScenarioConfig, draw_block
from .strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

# Trials drawn and evaluated together. Larger blocks spread numpy's
# per-call cost over more trials but hold more temporaries at once; of
# the sizes 16 to 1024, 64 gave the lowest peak RSS of a run in
# bench/memory_probe.py at the benchmark's sizes.
BLOCK_TRIALS = 64


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


def _run_range(config: ScenarioConfig, start: int, stop: int,
               strategies: tuple[StrategyKind, ...]) -> np.ndarray:
    """Trials [start, stop) as a (stop-start, n_strategies) array; all
    strategies of a trial share its draw."""
    out = np.empty((stop - start, len(strategies)))
    for first in range(start, stop, BLOCK_TRIALS):
        last = min(first + BLOCK_TRIALS, stop)
        block = draw_block(config, first, last)
        out[first - start:last - start] = strategy_rates(
            link_sinrs(block, config), strategies)
    return out


def run_point(config: ScenarioConfig, trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1) -> dict[StrategyKind, np.ndarray]:
    """Per-trial spectral efficiencies at one distance, in trial order.

    The result is independent of the worker count: chunks are reassembled
    by trial index before returning. At most os.cpu_count() processes run.
    """
    kinds = tuple(strategies)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not kinds:
        raise ValueError("at least one strategy is required")
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or trials < 2 * workers:
        table = _run_range(config, 0, trials, kinds)
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(
                _run_range,
                [config] * workers,
                bounds[:-1].tolist(), bounds[1:].tolist(),
                [kinds] * workers,
            ))
        table = np.vstack(chunks)
    return {kind: table[:, j] for j, kind in enumerate(kinds)}


def run_sweep(config: ScenarioConfig, distances_m: Sequence[float],
              trials: int,
              strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
              workers: int = 1,
              ) -> dict[tuple[StrategyKind, float], SummaryStats]:
    """Summary statistics per (strategy, distance): run_point at each of
    the distances, which replace config.distance_m."""
    if not distances_m:
        raise ValueError("distances_m must be non-empty")
    if any(b <= a for a, b in zip(distances_m, distances_m[1:])):
        raise ValueError("distances must be strictly increasing")
    results: dict[tuple[StrategyKind, float], SummaryStats] = {}
    for distance in distances_m:
        per_kind = run_point(replace(config, distance_m=distance), trials,
                             strategies, workers)
        for kind, samples in per_kind.items():
            results[(kind, distance)] = SummaryStats.from_samples(samples)
    return results


def run_cdf(config: ScenarioConfig, trials: int,
            strategies: Sequence[StrategyKind] = ALL_STRATEGIES,
            workers: int = 1) -> dict[StrategyKind, EmpiricalCdf]:
    """Empirical spectral-efficiency CDF per strategy at one distance."""
    per_kind = run_point(config, trials, strategies, workers)
    return {kind: EmpiricalCdf.from_samples(samples)
            for kind, samples in per_kind.items()}


import io
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaysim import montecarlo
from relaysim.cli import format_cdf_csv
from relaysim.montecarlo import (
    SummaryStats,
    percentile,
    run_cdf,
    run_point,
    run_sweep,
)
from relaysim.propagation import link_sinrs
from relaysim.scenario import ScenarioConfig, draw_block
from relaysim.strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

from test_propagation import _unit_fading_block


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with one that maps in this process; the
    list holds the size of each pool started."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    return sizes


def _stats(samples):
    """SummaryStats of one row of samples, computed apart from run_sweep:
    the mean of the sorted samples and their nearest-rank percentiles."""
    s = np.sort(samples)
    return SummaryStats(float(np.mean(s)),
                        *(percentile(s, p) for p in (10, 50, 90)))


def _point_tables(groups):
    """The (strategies, trials) table of each point of _tables' groups."""
    return [table for _, group in groups for table in group]


def _group_sizes(points, trials):
    """Points per distance group of a run at the current montecarlo.ROWS:
    the nearest whole number of calls of ROWS rows, at least one, with
    group i ending at point points * (i + 1) // calls."""
    rows = montecarlo.ROWS
    calls = max(1, round(points / (rows // min(trials, rows))))
    return [points * (i + 1) // calls - points * i // calls
            for i in range(calls)]


class TestEmpiricalCdf:
    """The CDF the cdf mode writes: run_cdf's sorted row, with F = i / n
    at its i-th (1-based) of n samples, read back as F(x), the cdf column
    of the last row whose value is <= x (0 before the first row)."""

    @staticmethod
    def _cdf(samples):
        fh = io.StringIO()
        format_cdf_csv({StrategyKind.DIRECT: np.sort(samples)}, fh)
        rows = [tuple(map(float, row.split(",")[1:]))
                for row in fh.getvalue().splitlines()[1:]]
        return lambda x: max((f for v, f in rows if v <= x), default=0.0)

    def test_basic(self):
        cdf = self._cdf([3.0, 1.0, 2.0])
        assert cdf(2.0) == pytest.approx(2 / 3, abs=1e-6)
        assert cdf(0.5) == 0.0
        assert cdf(3.0) == 1.0

    def test_right_continuity(self):
        cdf = self._cdf([1.0, 1.0, 2.0])
        assert cdf(1.0) == pytest.approx(2 / 3, abs=1e-6)
        assert cdf(1.0 - 1e-12) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_cdf(ScenarioConfig(), 0)

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(1.0, 500)
        cdf = self._cdf(samples)
        values = [cdf(x) for x in np.linspace(-1, 10, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert cdf(round(samples.max(), 6)) == 1.0


class TestPercentile:
    def test_single_sample(self):
        cdf = np.array([5.0])
        assert percentile(cdf, 50) == 5.0
        assert percentile(cdf, 0) == 5.0
        assert percentile(cdf, 100) == 5.0

    def test_nearest_rank_on_permutation(self):
        rng = np.random.default_rng(1)
        samples = rng.permutation(np.arange(1, 101)).astype(float)
        cdf = np.sort(samples)
        assert percentile(cdf, 90) == 90.0
        assert percentile(cdf, 10) == 10.0
        assert percentile(cdf, 50) == 50.0
        assert percentile(cdf, 100) == 100.0

    def test_out_of_range(self):
        cdf = np.array([1.0])
        with pytest.raises(ValueError):
            percentile(cdf, -1)
        with pytest.raises(ValueError):
            percentile(cdf, 101)
        with pytest.raises(ValueError):
            percentile(np.array([]), 50)


class TestSummaryStats:
    def test_single_sample_collapses(self):
        s = _stats(np.array([2.5]))
        assert s.mean == s.p10 == s.p50 == s.p90 == 2.5

    def test_ordering_invariant(self):
        rng = np.random.default_rng(2)
        s = _stats(rng.exponential(1.0, 1000))
        assert s.p10 <= s.p50 <= s.p90


class TestRunTrial:
    """Per-trial results of run_point."""

    def test_deterministic(self):
        cfg = ScenarioConfig(distance_m=50.0, seed=77)
        a, b = run_point(cfg, 4), run_point(cfg, 4)
        for kind in ALL_STRATEGIES:
            assert a[kind][3] == b[kind][3]

    def test_blocked_direct_zeroes_direct(self):
        cfg = ScenarioConfig(distance_m=50.0, blocked_direct=True,
                             seed=5)
        rates = run_point(cfg, 50, (StrategyKind.DIRECT,
                                    StrategyKind.DIRECT_EXCHANGE))
        assert np.all(rates[StrategyKind.DIRECT] == 0.0)
        assert np.all(rates[StrategyKind.DIRECT_EXCHANGE] == 0.0)

    def test_all_rates_nonnegative(self):
        cfg = ScenarioConfig(distance_m=70.0, seed=6)
        for v in run_point(cfg, 100).values():
            assert np.all(v >= 0.0) and np.all(np.isfinite(v))

    def test_unit_fading_direct_rate(self):
        # interference disabled, |h| = 1, L = 10 m: SNR 47.38 dB, so
        # direct rate log2(1 + 10^4.738) ~ 15.74 bits/s/Hz
        cfg = ScenarioConfig(distance_m=10.0,
                             interferer_min=0, interferer_max=0)
        sinr = link_sinrs(_unit_fading_block(10.0), cfg, cfg.distance_m)
        rates = strategy_rates(sinr, (StrategyKind.DIRECT,))
        assert rates[0, 0] == pytest.approx(15.74, abs=0.05)

    def test_shared_link_set_across_strategies(self):
        # evaluating a single strategy must match the paired evaluation
        cfg = ScenarioConfig(distance_m=70.0, seed=8)
        paired = run_point(cfg, 12, ALL_STRATEGIES)
        for kind in ALL_STRATEGIES:
            alone = run_point(cfg, 12, (kind,))
            assert alone[kind][11] == paired[kind][11]


class TestRunPoint:
    def test_first_half_identical_when_doubling_trials(self):
        cfg = ScenarioConfig(distance_m=60.0, seed=21)
        kinds = (StrategyKind.DIRECT, StrategyKind.AF_SINGLE)
        short = run_point(cfg, 50, kinds)
        long = run_point(cfg, 100, kinds)
        for kind in kinds:
            np.testing.assert_array_equal(short[kind], long[kind][:50])

    def test_block_boundaries_do_not_change_results(self):
        cfg = ScenarioConfig(distance_m=60.0, seed=24,
                             interferer_min=0, interferer_max=4)
        n = 2 * montecarlo.BLOCK_TRIALS + 7
        groups = [np.array([cfg.distance_m])]
        ((whole,),) = montecarlo._run_item(cfg, groups, 0, n, ALL_STRATEGIES)
        cuts = [0, 5, montecarlo.BLOCK_TRIALS + 3, n]
        pieces = [montecarlo._run_item(cfg, groups, a, b, ALL_STRATEGIES)[0][0]
                  for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(whole, np.hstack(pieces))

    def test_frees_each_block_before_the_next_draw(self, monkeypatch):
        # a serial run of one distance group draws a block per call: the
        # previous block must be gone by then, or a call of ROWS trials
        # holds two blocks at its peak
        drawn = []

        def drawing(config, start, stop):
            assert all(ref() is None for ref in drawn)
            block = draw_block(config, start, stop)
            drawn.append(weakref.ref(block))
            return block

        monkeypatch.setattr(montecarlo, "draw_block", drawing)
        run_point(ScenarioConfig(seed=48), 3 * montecarlo.ROWS + 7,
                  (StrategyKind.DIRECT,))
        assert len(drawn) == 4

    def test_worker_count_invariance(self):
        cfg = ScenarioConfig(distance_m=60.0, seed=22)
        kinds = (StrategyKind.DIRECT, StrategyKind.TWOWAY_AF)
        serial = run_point(cfg, 40, kinds, workers=1)
        parallel = run_point(cfg, 40, kinds, workers=3)
        for kind in kinds:
            np.testing.assert_array_equal(serial[kind], parallel[kind])

    def test_pool_size_capped_at_cpu_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        cfg = ScenarioConfig(distance_m=60.0, seed=23)
        kinds = (StrategyKind.DIRECT,)
        # four ROWS: enough work items for more than three processes
        trials = 4 * montecarlo.ROWS
        pooled = run_point(cfg, trials, kinds, workers=1000)
        assert pool_sizes == [3]
        np.testing.assert_array_equal(pooled[kinds[0]],
                                      run_point(cfg, trials, kinds)[kinds[0]])

    def test_one_item_runs_do_not_ask_for_the_cpu_count(self, pool_sizes,
                                                        monkeypatch):
        # a run of at most ROWS trials is one work item at any worker
        # count, so no cap on the pool can matter: fine_sweep_w2's 46
        # points of 50 trials at two workers, and a cdf of ROWS trials
        def cpu_count():
            raise AssertionError("a one-item run asked for the CPU count")

        monkeypatch.setattr(montecarlo.os, "cpu_count", cpu_count)
        cfg = ScenarioConfig(seed=25)
        distances = tuple(float(L) for L in range(10, 101, 2))
        assert len(distances) == 46
        sweep = run_sweep(cfg, distances, 50, workers=2)
        cdfs = run_cdf(cfg, montecarlo.ROWS, workers=2)
        assert pool_sizes == []
        assert len(sweep) == 46 * len(ALL_STRATEGIES)
        assert all(row.shape == (montecarlo.ROWS,) for row in cdfs.values())

    def test_serial_runs_do_not_ask_for_the_cpu_count(self, monkeypatch):
        # the CPU count caps a pool, and a serial run starts none
        def cpu_count():
            raise AssertionError("a serial run asked for the CPU count")

        monkeypatch.setattr(montecarlo.os, "cpu_count", cpu_count)
        cfg = ScenarioConfig(seed=24)
        trials = montecarlo.ROWS + 7  # more than one call per distance
        sweep = run_sweep(cfg, (20.0, 60.0), trials, workers=1)
        cdfs = run_cdf(cfg, trials, workers=1)
        assert len(sweep) == 2 * len(ALL_STRATEGIES)
        assert all(row.shape == (trials,) for row in cdfs.values())


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("run", [
    lambda w: run_point(ScenarioConfig(), 10, workers=w),
    lambda w: run_sweep(ScenarioConfig(), (10.0, 20.0), 10, workers=w),
    lambda w: run_cdf(ScenarioConfig(), 10, workers=w),
], ids=["run_point", "run_sweep", "run_cdf"])
def test_rejects_nonpositive_workers(run, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run(workers)


@pytest.mark.parametrize("strategies", [
    (StrategyKind.DIRECT, StrategyKind.DIRECT), "direct", ("direct",),
], ids=["repeated", "name", "names"])
@pytest.mark.parametrize("run", [
    lambda s: run_point(ScenarioConfig(), 10, s),
    lambda s: run_sweep(ScenarioConfig(), (10.0, 20.0), 10, s),
    lambda s: run_cdf(ScenarioConfig(), 10, s),
], ids=["run_point", "run_sweep", "run_cdf"])
def test_rejects_bad_strategies(run, strategies):
    # a repeated strategy would collapse into one result key, and a name
    # would fail deep in the engine as a KeyError
    with pytest.raises(ValueError, match="^strategies must be distinct "
                       "StrategyKind members$"):
        run(strategies)


@pytest.mark.parametrize("counts", [
    {"trials": True}, {"trials": 2.5}, {"workers": 1.5},
], ids=["bool_trials", "float_trials", "float_workers"])
@pytest.mark.parametrize("run", [
    lambda trials=10, workers=1: run_point(ScenarioConfig(), trials,
                                           workers=workers),
    lambda trials=10, workers=1: run_sweep(ScenarioConfig(), (10.0, 20.0),
                                           trials, workers=workers),
    lambda trials=10, workers=1: run_cdf(ScenarioConfig(), trials,
                                         workers=workers),
], ids=["run_point", "run_sweep", "run_cdf"])
def test_rejects_non_integer_counts(run, counts):
    (name,) = counts
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        run(**counts)


def test_accepts_numpy_integer_counts(pool_sizes, monkeypatch):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    cfg, kinds = ScenarioConfig(seed=3), (StrategyKind.DIRECT,)
    trials = 2 * montecarlo.ROWS
    pooled = run_point(cfg, np.int64(trials), kinds, workers=np.int64(2))
    assert pool_sizes == [2]
    np.testing.assert_array_equal(pooled[kinds[0]],
                                  run_point(cfg, trials, kinds)[kinds[0]])


def test_import_leaves_out_the_pool():
    # a serial run needs neither: ProcessPoolExecutor imports them when a
    # run starts a pool
    code = ("import sys, relaysim.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)))")
    src = Path(montecarlo.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "[]\n"


class TestRunSweep:
    def test_single_trial_stats_collapse(self):
        stats = run_sweep(ScenarioConfig(seed=1), (30.0,), 1,
                          (StrategyKind.DIRECT,))[(StrategyKind.DIRECT, 30.0)]
        assert stats.mean == stats.p10 == stats.p50 == stats.p90

    def test_direct_mean_decreases_with_distance(self):
        results = run_sweep(ScenarioConfig(seed=40),
                            tuple(float(L) for L in range(10, 101, 10)),
                            1500, (StrategyKind.DIRECT,))
        means = [results[(StrategyKind.DIRECT, float(L))].mean
                 for L in range(10, 101, 10)]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_frees_each_group_before_the_next(self, monkeypatch):
        # a serial sweep of several distance groups computes one group's
        # table at a time: the previous table must be gone by then, or the
        # sweep holds two tables at its peak
        tables = []

        def rating(sinr, kinds, out):
            if not tables or tables[-1]() is not out.base:
                assert all(ref() is None for ref in tables)
                tables.append(weakref.ref(out.base))
            return strategy_rates(sinr, kinds, out)

        monkeypatch.setattr(montecarlo, "strategy_rates", rating)
        trials = montecarlo.ROWS // 4
        run_sweep(ScenarioConfig(seed=49), tuple(range(10, 21)), trials,
                  (StrategyKind.DIRECT,))
        assert len(tables) == 3

    def test_one_pool_per_sweep(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = ScenarioConfig(seed=41)
        distances = tuple(float(L) for L in range(10, 101, 2))
        assert len(distances) == 46
        trials = montecarlo.ROWS + 7
        pooled = run_sweep(cfg, distances, trials, workers=2)
        assert pool_sizes == [2]
        serial = run_sweep(cfg, distances, trials, workers=1)
        assert pool_sizes == [2]
        assert pooled == serial

    def test_one_block_sweep_starts_no_pool(self, pool_sizes, monkeypatch):
        # one block is one work item, however many distances it covers
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = ScenarioConfig(seed=41)
        distances = tuple(float(L) for L in range(10, 101, 2))
        assert len(distances) == 46
        pooled = run_sweep(cfg, distances, 3, workers=2)
        assert pool_sizes == []
        assert pooled == run_sweep(cfg, distances, 3, workers=1)

    @pytest.mark.parametrize(
        "trials", [1, 2 * montecarlo.BLOCK_TRIALS + 7],
        ids=["fewer_trials_than_workers", "point_split_across_items"])
    def test_worker_count_invariance(self, trials):
        cfg = ScenarioConfig(seed=42, interferer_min=0, interferer_max=4)
        distances = (20.0, 45.0, 70.0)
        assert (run_sweep(cfg, distances, trials, workers=2)
                == run_sweep(cfg, distances, trials, workers=1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_match_run_point(self, workers):
        # blocks drawn once per item give each point its own run's bytes
        cfg = ScenarioConfig(seed=43, interferer_min=0, interferer_max=6)
        distances = (15.0, 40.0, 85.0)
        trials = 2 * montecarlo.BLOCK_TRIALS + 7
        swept = run_sweep(cfg, distances, trials, workers=workers)
        tables = _point_tables(montecarlo._tables(
            cfg, distances, trials, ALL_STRATEGIES, workers))
        for d, table in zip(distances, tables, strict=True):
            alone = run_point(replace(cfg, distance_m=d), trials)
            for j, kind in enumerate(ALL_STRATEGIES):
                np.testing.assert_array_equal(table[j], alone[kind])
                assert swept[(kind, d)] == _stats(alone[kind])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_draws_each_block_once(self, workers, pool_sizes,
                                         monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        drawn = self._count_draws(monkeypatch)
        b = montecarlo.BLOCK_TRIALS
        # more than ROWS trials: more than one work item
        trials = montecarlo.ROWS + 7
        run_sweep(ScenarioConfig(seed=44),
                  tuple(float(L) for L in range(10, 101, 10)), trials,
                  workers=workers)
        assert pool_sizes == ([] if workers == 1 else [2])
        # whole blocks per draw, disjoint and covering every trial, so that
        # no block is drawn twice
        assert all(start % b == 0 for start, _ in drawn)
        covered = [t for start, stop in sorted(drawn)
                   for t in range(start, stop)]
        assert covered == list(range(trials))
        blocks = [k for start, stop in drawn
                  for k in range(start // b, -(-stop // b))]
        assert len(blocks) == len(set(blocks)) == -(-trials // b)

    def test_pooled_runs_make_the_serial_draws(self, pool_sizes,
                                               monkeypatch):
        # ROWS is the one unit of work: work items are ranges of whole
        # ROWS, and the run, not the item, fixes the distance groups, so
        # at any worker count a run draws the serial run's ranges and makes
        # exactly the serial run's link_sinrs calls. The engine's numpy
        # calls are stubbed out: only their arguments are counted.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        drawn, calls = [], []

        def draw_block(config, start, stop):
            drawn.append((start, stop))
            return stop - start

        def link_sinrs(rows, config, distances):
            calls.append(len(distances))
            return len(distances), rows

        def strategy_rates(shape, kinds, out):
            assert out.shape == (shape[0], shape[1], len(kinds))

        for stub in (draw_block, link_sinrs, strategy_rates):
            monkeypatch.setattr(montecarlo, stub.__name__, stub)
        cfg = ScenarioConfig()
        for trials in (*range(1, 1101, 7), 4500, 10_000, 12_345, 100_000):
            for points in (1, 2, 3, 10, 23, 46):
                distances = tuple(range(10, 10 + 2 * points, 2))
                runs = []
                for workers in (1, 2, 3, 4):
                    drawn.clear()
                    calls.clear()
                    for _ in montecarlo._tables(cfg, distances, trials,
                                                (StrategyKind.DIRECT,),
                                                workers):
                        pass
                    runs.append((sorted(drawn), len(calls)))
                serial_draws, serial_calls = runs[0]
                for workers, (draws, placed) in enumerate(runs, start=1):
                    case = (trials, points, workers)
                    assert draws == serial_draws, case
                    assert placed == serial_calls, case
        assert set(pool_sizes) == {2, 3, 4}

    @staticmethod
    def _count_draws(monkeypatch):
        """Trial ranges (start, stop) of montecarlo.draw_block calls, in
        call order."""
        drawn = []

        def counting(config, start, stop):
            drawn.append((start, stop))
            return draw_block(config, start, stop)

        monkeypatch.setattr(montecarlo, "draw_block", counting)
        return drawn

    @staticmethod
    def _count_placements(monkeypatch):
        """Distances per montecarlo.link_sinrs call, in call order."""
        calls = []

        def counting(block, config, distance_m):
            calls.append(np.size(distance_m))
            return link_sinrs(block, config, distance_m)

        monkeypatch.setattr(montecarlo, "link_sinrs", counting)
        return calls

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.example(points=5, trials=montecarlo.ROWS // 2)
    @hypothesis.example(points=46, trials=50)
    @hypothesis.example(points=46, trials=200)
    @hypothesis.example(points=1, trials=1)
    @hypothesis.example(points=3, trials=montecarlo.ROWS + 76)
    @given(points=st.integers(1, 3000), trials=st.integers(1, 3000))
    def test_groups_are_balanced_calls_of_about_rows(self, points, trials):
        # the run splits its distances into the nearest whole number of
        # calls of ROWS rows, in order and balanced to within one point, so
        # no call places more than 1.5 x ROWS trial-points (5 points of
        # ROWS / 2 trials split 2 + 3). The engine's numpy calls are
        # stubbed out: only their arguments are counted.
        rows, calls = montecarlo.ROWS, []

        def link_sinrs(trial_rows, config, distances):
            calls.append(len(distances) * trial_rows)
            return len(distances), trial_rows

        stubs = {"draw_block": lambda config, start, stop: stop - start,
                 "link_sinrs": link_sinrs,
                 "strategy_rates": lambda shape, kinds, out: None}
        with pytest.MonkeyPatch.context() as patch:
            for name, stub in stubs.items():
                patch.setattr(montecarlo, name, stub)
            distances = [float(L) for L in range(1, points + 1)]
            groups = [group for group, _ in montecarlo._tables(
                ScenarioConfig(), distances, trials, (StrategyKind.DIRECT,),
                1)]
        assert [d for group in groups for d in group] == distances
        per_call = min(trials, rows)
        assert len(groups) == max(1, round(points / (rows // per_call)))
        sizes = [len(group) for group in groups]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) * per_call <= 1.5 * rows
        assert max(calls) <= 1.5 * rows
        assert len(calls) == len(groups) * -(-trials // rows)

    def test_fine_sweep_makes_two_calls(self, monkeypatch):
        # fine_sweep_w2's 46 points of 50 trials: 2300 rows, the nearest
        # whole number of calls of ROWS = 1024 rows is 2, of 23 points each
        assert montecarlo.ROWS == 1024
        calls = self._count_placements(monkeypatch)
        distances = tuple(float(L) for L in range(10, 101, 2))
        run_sweep(ScenarioConfig(seed=26), distances, 50, workers=2)
        assert calls == [23, 23]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_packed_distances_match_run_point(self, workers, monkeypatch):
        # an item of fewer than ROWS trials is placed at several distances
        # per call, in the nearest whole number of calls of ROWS rows:
        # 23 points of 100 trials make round(23 / (ROWS // 100)) calls of
        # 11 and 12 points at ROWS = 1024; sweep_w1's 10 points of 50
        # trials make one call
        cfg = ScenarioConfig(seed=45, interferer_min=0, interferer_max=5)
        calls = self._count_placements(monkeypatch)
        for points, trials in ((23, 100), (10, 50)):
            placements = _group_sizes(points, trials)
            distances = tuple(float(L) for L in range(12, 12 + 4 * points, 4))
            calls.clear()
            swept = run_sweep(cfg, distances, trials, workers=workers)
            assert calls == placements
            tables = _point_tables(montecarlo._tables(
                cfg, distances, trials, ALL_STRATEGIES, workers))
            for d, table in zip(distances, tables, strict=True):
                alone = run_point(replace(cfg, distance_m=d), trials)
                for j, kind in enumerate(ALL_STRATEGIES):
                    np.testing.assert_array_equal(table[j], alone[kind])
                    assert swept[(kind, d)] == _stats(alone[kind])

    def test_group_size_is_per_run(self, pool_sizes, monkeypatch):
        cfg = ScenarioConfig(seed=45)
        distances = tuple(float(L) for L in range(12, 104, 4))
        calls = self._count_placements(monkeypatch)
        b, rows = montecarlo.BLOCK_TRIALS, montecarlo.ROWS
        group = rows // b
        assert rows == group * b and group > 1
        # a one-block item packs about ROWS // b distances per call: 23
        # points make round(23 / 4) = 6 calls, one of 3 and five of 4, at
        # ROWS = 1024
        run_sweep(cfg, distances, b, (StrategyKind.DIRECT,))
        assert calls == _group_sizes(23, b)
        # a serial item of more than ROWS trials goes one distance per
        # call, in calls of ROWS rows and its 7-row tail
        drawn = self._count_draws(monkeypatch)
        calls.clear()
        run_sweep(cfg, distances[:3], rows + 7, (StrategyKind.DIRECT,))
        assert drawn == [(0, rows), (rows, rows + 7)]
        assert calls == [1] * 6
        # at two workers each item is a range of whole ROWS over the run's
        # groups: the ROWS-row item and the 7-row tail item both go one
        # distance per call, as the serial run does
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        calls.clear()
        run_sweep(cfg, distances[:3], rows + 7, (StrategyKind.DIRECT,),
                  workers=2)
        assert pool_sizes == [2]
        assert calls == [1] * 6

    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 8],
                             ids=lambda k: f"{k}_blocks")
    def test_tables_do_not_depend_on_rows(self, rows, pool_sizes,
                                          monkeypatch):
        # every row's bits are independent of the packing: any whole number
        # of blocks per call gives the tables of the default ROWS, at one
        # worker and at two (4 points of 600 trials: two whole blocks and
        # an 88-trial tail). Work items are whole ROWS too, so the widest
        # draw is the same at both, and 600 trials of 4 or more blocks per
        # call are one item, which starts no pool. 5 blocks packs two
        # distances per call, above the default ROWS, and 8 blocks all four
        # (2400 rows, at most 1.5 x ROWS).
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = ScenarioConfig(seed=47, interferer_min=0, interferer_max=6)
        distances = (15.0, 40.0, 65.0, 90.0)
        expected = list(montecarlo._tables(cfg, distances, 600,
                                           ALL_STRATEGIES, 1))
        b = montecarlo.BLOCK_TRIALS
        monkeypatch.setattr(montecarlo, "ROWS", rows * b)
        drawn = self._count_draws(monkeypatch)
        for workers in (1, 2):
            drawn.clear()
            tables = list(montecarlo._tables(cfg, distances, 600,
                                             ALL_STRATEGIES, workers))
            widest = max(stop - start for start, stop in drawn)
            assert widest == min(rows * b, 600)
            # a call of more than 600 rows packs several distances, so the
            # groups differ from the default's, but no point's table does
            assert [len(points) for points, _ in tables] == \
                _group_sizes(len(distances), 600)
            assert [d for points, _ in tables for d in points] == \
                [d for labels, _ in expected for d in labels]
            for got, want in zip(_point_tables(tables),
                                 _point_tables(expected), strict=True):
                np.testing.assert_array_equal(got, want)
        assert pool_sizes == ([2] if rows * b < 600 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tables_are_contiguous_and_disjoint(self, workers, monkeypatch):
        # run_sweep sorts each group in place and takes each row's
        # pairwise mean, and run_cdf sorts its point's table in place: all
        # need every group C-contiguous and sharing no memory with another.
        # 50 trials make one group of ten points; more than ROWS trials
        # make groups of one point
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = ScenarioConfig(seed=46)
        b = montecarlo.BLOCK_TRIALS
        for points, trials, sizes in ((10, 50, [10]),
                                      (3, 2 * b + 7, [1, 1, 1])):
            distances = tuple(float(L) for L in range(10, 10 + 10 * points,
                                                      10))
            pairs = list(montecarlo._tables(cfg, distances, trials,
                                            ALL_STRATEGIES, workers))
            assert [d for points, _ in pairs for d in points] == \
                list(distances)
            groups = [group for _, group in pairs]
            assert [len(group) for group in groups] == sizes
            for i, group in enumerate(groups):
                assert group.shape[1:] == (len(ALL_STRATEGIES), trials)
                assert group.flags.c_contiguous
                for other in groups[:i]:
                    assert not np.shares_memory(group, other)

    def test_rejects_bad_distances(self):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError):
            run_sweep(cfg, (), 10)
        with pytest.raises(ValueError):
            run_sweep(cfg, (10.0, 10.0), 10)
        with pytest.raises(ValueError):
            run_sweep(cfg, (20.0, 10.0), 10)
        for distances in ((-5.0, 10.0), (10.0, math.inf), (10.0, math.nan)):
            with pytest.raises(ValueError, match="^distance_m must be "
                               "positive and finite$"):
                run_sweep(cfg, distances, 10)
        # a scalar, 2-D or ragged sequence fails with one line, not a
        # TypeError
        for distances in (np.array([[10.0, 20.0]]), [[10, 20], [30]], 10.0):
            with pytest.raises(ValueError) as info:
                run_sweep(cfg, distances, 5)
            assert "\n" not in str(info.value)
        # text and bools are not read as numbers
        for distances in (["10", "20"], [True, 2.0], [10, "20"]):
            with pytest.raises(ValueError, match="^distances_m must be "
                               "numbers, not text or bools$"):
                run_sweep(cfg, distances, 5)

    def test_accepts_numpy_distances(self):
        cfg, grid = ScenarioConfig(seed=2), np.arange(10.0, 101.0, 10.0)
        assert run_sweep(cfg, grid, 20) == run_sweep(cfg, tuple(grid), 20)
        with pytest.raises(ValueError, match="must be non-empty"):
            run_sweep(cfg, np.array([]), 20)
        # the keys carry the distances as floats, whatever their type
        keys = run_sweep(cfg, (10, 20), 5)
        assert {type(d) for _, d in keys} == {float}
        assert {d for _, d in keys} == {10.0, 20.0}

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            run_sweep(ScenarioConfig(), (10.0,), 0)

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError, match="at least one strategy"):
            run_sweep(ScenarioConfig(), (10.0,), 10, ())


class TestRunCdf:
    def test_cdf_sizes(self):
        cfg = ScenarioConfig(distance_m=70.0, seed=2)
        kinds = (StrategyKind.DIRECT, StrategyKind.DF_SINGLE)
        for workers in (1, 2):
            cdfs = run_cdf(cfg, 80, kinds, workers=workers)
            rates = run_point(cfg, 80, kinds, workers=workers)
            for kind in kinds:
                assert cdfs[kind].shape == (80,)
                np.testing.assert_array_equal(cdfs[kind],
                                              np.sort(rates[kind]))

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError, match="at least one strategy"):
            run_cdf(ScenarioConfig(), 10, ())


import numpy as np
import pytest

from relaysim import montecarlo
from relaysim.montecarlo import (
    EmpiricalCdf,
    SummaryStats,
    SweepSpec,
    percentile,
    run_cdf,
    run_point,
    run_sweep,
)
from relaysim.propagation import link_sinrs
from relaysim.scenario import ScenarioConfig
from relaysim.strategies import ALL_STRATEGIES, StrategyKind, strategy_rates

from test_propagation import _unit_fading_block


class TestEmpiricalCdf:
    def test_basic(self):
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        assert cdf.n == 3
        assert cdf.cdf_at(2.0) == pytest.approx(2 / 3)
        assert cdf.cdf_at(0.5) == 0.0
        assert cdf.cdf_at(3.0) == 1.0

    def test_right_continuity(self):
        cdf = EmpiricalCdf.from_samples([1.0, 1.0, 2.0])
        assert cdf.cdf_at(1.0) == pytest.approx(2 / 3)
        assert cdf.cdf_at(1.0 - 1e-12) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([])

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        cdf = EmpiricalCdf.from_samples(rng.exponential(1.0, 500))
        xs = np.linspace(-1, 10, 200)
        values = [cdf.cdf_at(x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert cdf.cdf_at(float(cdf.sorted_samples[-1])) == 1.0


class TestPercentile:
    def test_single_sample(self):
        cdf = EmpiricalCdf.from_samples([5.0])
        assert percentile(cdf, 50) == 5.0
        assert percentile(cdf, 0) == 5.0
        assert percentile(cdf, 100) == 5.0

    def test_nearest_rank_on_permutation(self):
        rng = np.random.default_rng(1)
        samples = rng.permutation(np.arange(1, 101)).astype(float)
        cdf = EmpiricalCdf.from_samples(samples)
        assert percentile(cdf, 90) == 90.0
        assert percentile(cdf, 10) == 10.0
        assert percentile(cdf, 50) == 50.0
        assert percentile(cdf, 100) == 100.0

    def test_out_of_range(self):
        cdf = EmpiricalCdf.from_samples([1.0])
        with pytest.raises(ValueError):
            percentile(cdf, -1)
        with pytest.raises(ValueError):
            percentile(cdf, 101)


class TestSummaryStats:
    def test_single_sample_collapses(self):
        s = SummaryStats.from_samples(np.array([2.5]))
        assert s.mean == s.p10 == s.p50 == s.p90 == 2.5
        assert s.spread == 0.0

    def test_ordering_invariant(self):
        rng = np.random.default_rng(2)
        s = SummaryStats.from_samples(rng.exponential(1.0, 1000))
        assert s.p10 <= s.p50 <= s.p90
        assert s.spread >= 0.0


class TestSweepSpec:
    def test_rejects_bad_distances(self):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError):
            SweepSpec(cfg, ())
        with pytest.raises(ValueError):
            SweepSpec(cfg, (10.0, 10.0))
        with pytest.raises(ValueError):
            SweepSpec(cfg, (20.0, 10.0))
        with pytest.raises(ValueError):
            SweepSpec(cfg, (-5.0, 10.0))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            SweepSpec(ScenarioConfig(), (10.0,), trials_per_point=0)


class TestRunTrial:
    """Per-trial results of run_point."""

    def test_deterministic(self):
        cfg = ScenarioConfig(distance_m=50.0, master_seed=77)
        a, b = run_point(cfg, 4), run_point(cfg, 4)
        for kind in ALL_STRATEGIES:
            assert a[kind][3] == b[kind][3]

    def test_blocked_direct_zeroes_direct(self):
        cfg = ScenarioConfig(distance_m=50.0, direct_blocked=True,
                             master_seed=5)
        rates = run_point(cfg, 50, (StrategyKind.DIRECT,
                                    StrategyKind.DIRECT_EXCHANGE))
        assert np.all(rates[StrategyKind.DIRECT] == 0.0)
        assert np.all(rates[StrategyKind.DIRECT_EXCHANGE] == 0.0)

    def test_all_rates_nonnegative(self):
        cfg = ScenarioConfig(distance_m=70.0, master_seed=6)
        for v in run_point(cfg, 100).values():
            assert np.all(v >= 0.0) and np.all(np.isfinite(v))

    def test_unit_fading_direct_rate(self):
        # interference disabled, |h| = 1, L = 10 m: SNR 47.38 dB, so
        # direct rate log2(1 + 10^4.738) ~ 15.74 bits/s/Hz
        cfg = ScenarioConfig(distance_m=10.0,
                             interferer_count_range=(0, 0))
        sinr = link_sinrs(_unit_fading_block(10.0), cfg)
        rates = strategy_rates(sinr, (StrategyKind.DIRECT,))
        assert rates[0, 0] == pytest.approx(15.74, abs=0.05)

    def test_shared_link_set_across_strategies(self):
        # evaluating a single strategy must match the paired evaluation
        cfg = ScenarioConfig(distance_m=70.0, master_seed=8)
        paired = run_point(cfg, 12, ALL_STRATEGIES)
        for kind in ALL_STRATEGIES:
            alone = run_point(cfg, 12, (kind,))
            assert alone[kind][11] == paired[kind][11]


class TestRunPoint:
    def test_first_half_identical_when_doubling_trials(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=21)
        kinds = (StrategyKind.DIRECT, StrategyKind.AF_SINGLE)
        short = run_point(cfg, 50, kinds)
        long = run_point(cfg, 100, kinds)
        for kind in kinds:
            np.testing.assert_array_equal(short[kind], long[kind][:50])

    def test_block_boundaries_do_not_change_results(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=24,
                             interferer_count_range=(0, 4))
        n = 2 * montecarlo.BLOCK_TRIALS + 7
        whole = montecarlo._run_range(cfg, 0, n, ALL_STRATEGIES)
        cuts = [0, 5, montecarlo.BLOCK_TRIALS + 3, n]
        pieces = [montecarlo._run_range(cfg, a, b, ALL_STRATEGIES)
                  for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(whole, np.vstack(pieces))

    def test_worker_count_invariance(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=22)
        kinds = (StrategyKind.DIRECT, StrategyKind.TWOWAY_AF)
        serial = run_point(cfg, 40, kinds, workers=1)
        parallel = run_point(cfg, 40, kinds, workers=3)
        for kind in kinds:
            np.testing.assert_array_equal(serial[kind], parallel[kind])

    def test_pool_size_capped_at_cpu_count(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        cfg = ScenarioConfig(distance_m=60.0, master_seed=23)
        kinds = (StrategyKind.DIRECT,)
        pooled = run_point(cfg, 12, kinds, workers=1000)
        assert sizes == [3]
        np.testing.assert_array_equal(pooled[kinds[0]],
                                      run_point(cfg, 12, kinds)[kinds[0]])


class TestRunSweep:
    def test_single_trial_stats_collapse(self):
        spec = SweepSpec(ScenarioConfig(master_seed=1), (30.0,),
                         (StrategyKind.DIRECT,), trials_per_point=1)
        stats = run_sweep(spec)[(StrategyKind.DIRECT, 30.0)]
        assert stats.mean == stats.p10 == stats.p50 == stats.p90

    def test_direct_mean_decreases_with_distance(self):
        spec = SweepSpec(ScenarioConfig(master_seed=40),
                         tuple(float(L) for L in range(10, 101, 10)),
                         (StrategyKind.DIRECT,), trials_per_point=1500)
        results = run_sweep(spec)
        means = [results[(StrategyKind.DIRECT, float(L))].mean
                 for L in range(10, 101, 10)]
        assert all(b < a for a, b in zip(means, means[1:]))


class TestRunCdf:
    def test_cdf_sizes(self):
        cfg = ScenarioConfig(distance_m=70.0, master_seed=2)
        cdfs = run_cdf(cfg, 80, (StrategyKind.DIRECT,
                                 StrategyKind.DF_SINGLE))
        for cdf in cdfs.values():
            assert cdf.n == 80
            assert np.all(np.diff(cdf.sorted_samples) >= 0)

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 3 and 5 encode qualitative claims from the source material that
the reconstructed half-duplex rate model does not reproduce; they are
implemented as stated and are expected to fail (see the project notes).
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from relaysim.cli import main
from relaysim.montecarlo import percentile, run_cdf, run_sweep
from relaysim.propagation import dbm_to_mw, node_positions
from relaysim.scenario import R1, ScenarioConfig, draw_block
from relaysim.strategies import ALL_STRATEGIES, StrategyKind, \
    af_equivalent_snr, rate_af_single, rate_df_single, twoway_af_snrs

from signal_oracles import af_hop_snr, path_loss_db, payload_gains, \
    twoway_af_snrs as oracle_twoway

DISTANCES = tuple(float(L) for L in range(10, 101, 10))
TRIALS = 10_000
SEED = 2012


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def default_sweep():
    """10,000 trials per distance over 10..100 m with scenario defaults,
    all strategies paired on the same draws. Shared by criteria 3-6."""
    start = time.perf_counter()
    results = run_sweep(ScenarioConfig(seed=SEED), DISTANCES, TRIALS,
                        ALL_STRATEGIES)
    elapsed = time.perf_counter() - start
    return results, elapsed


def _means(results, kind):
    return [results[(kind, L)].mean for L in DISTANCES]


def test_criterion_1_af_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for g1, g2 in ((3.0, 3.0), (10.0, 2.0), (100.0, 100.0)):
        measured = af_hop_snr(g1, g2, n_symbols=1_000_000, seed=13)
        formula = af_equivalent_snr(g1, g2)
        ok &= abs(formula - measured) / measured <= 0.01
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _verdict(1, "AF oracle equivalence", ok)


def test_criterion_2_twoway_af_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for g_a, g_b in ((10.0, 10.0), (50.0, 5.0)):
        measured = oracle_twoway(g_a, g_b, n_symbols=1_000_000, seed=17)
        formula = twoway_af_snrs(g_a, g_b)
        for f, m in zip(formula, measured):
            ok &= abs(f - m) / m <= 0.01
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _verdict(2, "two-way AF oracle equivalence", ok)


def test_criterion_3_relaying_gain_at_every_distance(default_sweep):
    results, elapsed = default_sweep
    direct = _means(results, StrategyKind.DIRECT)
    af = _means(results, StrategyKind.AF_SINGLE)
    df = _means(results, StrategyKind.DF_SINGLE)
    ok = all(a > d for a, d in zip(af, direct)) \
        and all(x > d for x, d in zip(df, direct)) \
        and elapsed < 60.0
    margins = []
    for name, relayed in (("af_single", af), ("df_single", df)):
        gain = [(r - d, L) for r, d, L in zip(relayed, direct, DISTANCES)]
        margins.append("{} - direct: worst {:+.2f} at {:g} m, best {:+.2f} "
                       "at {:g} m".format(name, *min(gain), *max(gain)))
    assert _verdict(3, "AF/DF single relay beat direct at every distance",
                    ok, "; ".join(margins) + " bits/s/Hz")


def test_criterion_4_two_relay_df_tracks_single_relay_df(default_sweep):
    results, _ = default_sweep
    df1 = _means(results, StrategyKind.DF_SINGLE)
    df2 = _means(results, StrategyKind.DF_BEAMFORM2)
    ok = all(abs(b / a - 1.0) <= 0.15 for a, b in zip(df1, df2))
    assert _verdict(4, "two-relay DF within 15% of single-relay DF", ok)


def test_criterion_5_twoway_df_crossover(default_sweep):
    results, _ = default_sweep
    diff = [results[(StrategyKind.TWOWAY_DF, L)].mean
            - results[(StrategyKind.DIRECT_EXCHANGE, L)].mean
            for L in DISTANCES]
    below_at_small = diff[0] < 0
    above_at_large = diff[-1] > 0
    crossover = next((L for L, d in zip(DISTANCES, diff) if d > 0),
                     None)
    ok = below_at_small and above_at_large \
        and crossover is not None and 20.0 <= crossover <= 60.0
    assert _verdict(5, "two-way DF / direct-exchange crossover in "
                       "[20, 60] m", ok,
                    f"twoway_df - direct_exchange: {diff[0]:+.2f} at "
                    f"{DISTANCES[0]:g} m, {diff[-1]:+.2f} at "
                    f"{DISTANCES[-1]:g} m bits/s/Hz")


def test_criterion_6_twoway_af_beats_unidirectional_exchange(default_sweep):
    results, _ = default_sweep
    ok = all(results[(StrategyKind.TWOWAY_AF, L)].mean
             > results[(StrategyKind.UNI_AF_EXCHANGE, L)].mean
             for L in DISTANCES if L >= 30.0)
    assert _verdict(6, "two-way AF beats 4-slot AF exchange for L >= 30 m",
                    ok)


def test_criterion_7_relaying_reliability_at_70m():
    cdfs = run_cdf(ScenarioConfig(distance_m=70.0, seed=SEED),
                   TRIALS, (StrategyKind.DIRECT, StrategyKind.AF_SINGLE,
                            StrategyKind.DF_SINGLE))

    def normalized_spread(cdf):
        p10, p50, p90 = (percentile(cdf, p) for p in (10, 50, 90))
        return (p90 - p10) / p50

    spread = {kind: normalized_spread(cdf) for kind, cdf in cdfs.items()}
    ok = spread[StrategyKind.AF_SINGLE] < spread[StrategyKind.DIRECT] \
        and spread[StrategyKind.DF_SINGLE] < spread[StrategyKind.DIRECT]
    assert _verdict(7, "relaying CDFs steeper than direct at 70 m", ok)


def test_criterion_8_worker_count_determinism(tmp_path):
    # more trials than ROWS, so the workers-3 run starts a pool on any
    # host with two or more CPUs
    digests = []
    for name, workers in (("w1.csv", "1"), ("w3.csv", "3")):
        out = str(tmp_path / name)
        rc = main(["--mode", "sweep", "--trials", "1100", "--seed", "42",
                   "--workers", workers, "--out", out])
        assert rc == 0
        digests.append(
            hashlib.sha256(Path(out).read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    assert _verdict(8, "byte-identical sweep CSVs across worker counts",
                    ok)


def test_criterion_9_invariant_suite():
    """Compact composite of the module invariants; the full property
    tests live in the per-module test files."""
    start = time.perf_counter()
    ok = True

    # dB round trip
    for dbm in np.linspace(-200, 50, 501):
        ok &= abs(10 * np.log10(dbm_to_mw(dbm)) - dbm) \
            <= 1e-9 * max(1, abs(dbm))

    # path-loss monotonicity in distance
    pl = [path_loss_db(2440.0, d, 28.0) for d in np.linspace(1, 500, 200)]
    ok &= all(b > a for a, b in zip(pl, pl[1:]))

    # the payload links' fading |h|^2 ~ exponential(1)
    h2 = payload_gains(3, 1_000_000)
    ok &= scipy_stats.kstest(h2, "expon").statistic < 0.005
    ok &= abs(h2.mean() - 1.0) < 0.005

    # relay-x marginal uniform on [0, L]
    cfg = ScenarioConfig(distance_m=100.0, seed=4)
    xs = node_positions(draw_block(cfg, 0, 10_000), 100.0)[:, R1, 0]
    ok &= scipy_stats.kstest(xs / 100.0, "uniform").statistic < 0.02

    # rate monotonicity spot grid
    grid = (0.0, 0.1, 1.0, 10.0, 1e4)
    for g_sd in grid:
        for g_sr in grid:
            for g_rd in grid:
                base_af = rate_af_single(g_sd, g_sr, g_rd)
                base_df = rate_df_single(g_sd, g_sr, g_rd)
                ok &= rate_af_single(g_sd + 1, g_sr, g_rd) >= base_af
                ok &= rate_af_single(g_sd, g_sr + 1, g_rd) >= base_af
                ok &= rate_af_single(g_sd, g_sr, g_rd + 1) >= base_af
                ok &= rate_df_single(g_sd + 1, g_sr, g_rd) >= base_df
                ok &= rate_df_single(g_sd, g_sr + 1, g_rd) >= base_df
                ok &= rate_df_single(g_sd, g_sr, g_rd + 1) >= base_df

    # CDF validity
    s = np.sort(np.random.default_rng(3).exponential(1.0, 1000))

    def cdf_at(x):
        return np.searchsorted(s, x, side="right") / s.size

    ok &= cdf_at(s[-1]) == 1.0
    ok &= cdf_at(s[0] - 1.0) == 0.0
    values = [cdf_at(x) for x in np.linspace(0, 10, 100)]
    ok &= all(b >= a for a, b in zip(values, values[1:]))

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert _verdict(9, "invariant suite", ok)

"""End-to-end checks of the engine's Monte Carlo output against known
answers: geometry, dB arithmetic, path loss, fading and aggregation
together.

With interference off, the direct link at the fixed distance L has the
SNR gbar_k * X on ZigBee channel k, X ~ Exp(1) (|h|^2 of unit-mean
Rayleigh fading), and k uniform on 11..26. The ergodic rate of Rayleigh
fading (Alouini & Goldsmith, IEEE Trans. VT 48(4), 1999) and the outage
probability then have closed forms, averaged over the 16 channels.

With interference on, the interferer powers at D are independent
exponentials too, so the direct link's success probability stays exact
in the fading; only the average over interferer positions is numerical,
a GRID x GRID midpoint rule over the box. The same holds for df_single's
outage with interference off: given the channel and the relay's
position, its decode and MRC events are exact in the fading. The seed,
the size and the bound are fixed in advance; each statistical check
passes when |z| < Z_BOUND against the engine's own standard error.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import exp1, exprel

from relaysim.montecarlo import run_point
from relaysim.scenario import ScenarioConfig, draw_block
from relaysim.strategies import StrategyKind

SEED = 11
TRIALS = 20_000
Z_BOUND = 5.0
RATE = 6.0  # bits/s/Hz, the target rate of the outage check
GRID = 200  # midpoints per axis of the average over interferer positions

QUIET = ScenarioConfig(distance_m=70.0, seed=SEED,
                       interferer_power_dbm=-math.inf)


def _mean_mw(cfg, power_dbm, distance_m):
    """Mean received power in mW of a link of length distance_m (clamped
    at 1 m; a scalar or a 1-D array), one row per channel k = 11..26,
    from the link budget written out by hand: transmit power plus the
    antenna gain at both ends, minus ITU indoor path loss."""
    f_mhz = 2405.0 + 5.0 * np.arange(16.0)[:, None]
    d = np.maximum(np.atleast_1d(distance_m), 1.0)
    path_loss = 20.0 * np.log10(f_mhz) \
        + cfg.path_loss_coeff_db_per_decade * np.log10(d) - 28.0
    return 10.0 ** ((power_dbm + 2.0 * cfg.antenna_gain_db - path_loss)
                    / 10.0)


def _box_midpoints(L):
    """x and y of the GRID x GRID midpoints of the box [0, L] x
    [-L/2, L/2], where relays and interferers are uniform, as flat
    arrays."""
    u = (np.arange(GRID) + 0.5) / GRID
    x, y = np.meshgrid(u * L, (u - 0.5) * L)
    return x.ravel(), y.ravel()


def _mean_snrs(cfg):
    """gbar_k of the direct link on each channel k = 11..26."""
    return _mean_mw(cfg, cfg.tx_power_dbm, cfg.distance_m)[:, 0] \
        / 10.0 ** (cfg.noise_power_dbm / 10.0)


def _direct_success_with_interferers(cfg, rate):
    """P(SE >= rate) of the direct link at distance L with Rayleigh
    interferers. Given channel k, t = 2^rate - 1 and mean signal power
    a_s: P(X a_s >= t (N + sum of I_j)) = e^(-tN/a_s) prod_j E[e^(-t I_j
    / a_s)]. Interferer j shares the channel with probability 1/16, and
    then, from a point uniform in the box, E[e^(-t I_j / a_s)] =
    E_pos[1 / (1 + t a_I(pos) / a_s)]; otherwise the factor is 1. The
    interferer count is uniform on interferer_min..interferer_max."""
    L, t = cfg.distance_m, 2.0 ** rate - 1.0
    x, y = _box_midpoints(L)
    a_s = _mean_mw(cfg, cfg.tx_power_dbm, L)
    a_i = _mean_mw(cfg, cfg.interferer_power_dbm, np.hypot(L - x, y))
    each = 15 / 16 + np.mean(1.0 / (1.0 + t * a_i / a_s), axis=1) / 16
    counts = np.arange(cfg.interferer_min, cfg.interferer_max + 1)
    noise = 10.0 ** (cfg.noise_power_dbm / 10.0)
    return np.mean(np.exp(-t * noise / a_s[:, 0])
                   * np.mean(each[:, None] ** counts, axis=1))


def _df_single_outage(cfg, rate):
    """P(SE < rate) of df_single with interference off. With
    t = 2^(2 rate) - 1 (the half-duplex prelog) and independent
    X ~ Exp(1), the rate is met when the relay decodes, X_SR a_SR >= t,
    and the destination's MRC sum does too, X_SD a_SD + X_RD a_RD >= t
    (Laneman, Tse & Wornell, IEEE Trans. IT 50(12), 2004). For means
    a >= b, P(X a + Y b >= t) = (a e^(-t/a) - b e^(-t/b)) / (a - b)
    = e^(-t/a) (1 + (t/a) exprel(t/a - t/b)), exprel(x) = (e^x - 1)/x,
    which is stable where a ~ b, and no term overflows. It is averaged
    over the relay's position and the 16 channels."""
    L, t = cfg.distance_m, 2.0 ** (2.0 * rate) - 1.0
    x, y = _box_midpoints(L)
    noise = 10.0 ** (cfg.noise_power_dbm / 10.0)
    a_sr, a_rd = (_mean_mw(cfg, cfg.tx_power_dbm, np.hypot(dx, y)) / noise
                  for dx in (x, L - x))
    a_sd = _mean_snrs(cfg)[:, None]
    a, b = np.maximum(a_sd, a_rd), np.minimum(a_sd, a_rd)
    mrc = np.exp(-t / a) * (1.0 + t / a * exprel(t / a - t / b))
    return 1.0 - np.mean(np.exp(-t / a_sr) * mrc)


def _z(estimate, truth, se):
    return (estimate - truth) / se


@pytest.fixture(scope="module")
def se_direct():
    """The direct link's spectral efficiency in TRIALS quiet trials."""
    return run_point(QUIET, TRIALS, (StrategyKind.DIRECT,))[
        StrategyKind.DIRECT]


def test_direct_mean_matches_ergodic_rayleigh_rate(se_direct):
    inv = 1.0 / _mean_snrs(QUIET)
    truth = np.mean(np.exp(inv) * exp1(inv)) / math.log(2.0)
    z = _z(se_direct.mean(), truth, se_direct.std(ddof=1) / TRIALS ** 0.5)
    assert abs(z) < Z_BOUND, (se_direct.mean(), truth, z)


def test_direct_outage_matches_closed_form(se_direct):
    truth = np.mean(1.0 - np.exp(-(2.0 ** RATE - 1.0) / _mean_snrs(QUIET)))
    p = np.mean(se_direct < RATE)
    z = _z(p, truth, math.sqrt(p * (1.0 - p) / TRIALS))
    assert abs(z) < Z_BOUND, (p, truth, z)


@pytest.mark.parametrize("distance,lo,hi,power_dbm,rate", [
    (70.0, 1, 3, 3.0, 6.0), (70.0, 0, 6, 10.0, 6.0),
    (30.0, 4, 12, 10.0, 9.0)])
def test_direct_success_matches_rayleigh_interferers(distance, lo, hi,
                                                     power_dbm, rate):
    cfg = ScenarioConfig(distance_m=distance, seed=SEED, interferer_min=lo,
                         interferer_max=hi, interferer_power_dbm=power_dbm)
    se = run_point(cfg, TRIALS, (StrategyKind.DIRECT,))[StrategyKind.DIRECT]
    truth = _direct_success_with_interferers(cfg, rate)
    p = np.mean(se >= rate)
    z = _z(p, truth, math.sqrt(p * (1.0 - p) / TRIALS))
    assert abs(z) < Z_BOUND, (p, truth, z)


@pytest.mark.parametrize("distance,rates", [
    (70.0, (3.0, 4.0)), (30.0, (5.0,)), (100.0, (3.0,))])
def test_df_single_outage_matches_rayleigh_mrc(distance, rates):
    cfg = replace(QUIET, distance_m=distance)
    se = run_point(cfg, TRIALS, (StrategyKind.DF_SINGLE,))[
        StrategyKind.DF_SINGLE]
    for rate in rates:
        truth = _df_single_outage(cfg, rate)
        p = np.mean(se < rate)
        z = _z(p, truth, math.sqrt(p * (1.0 - p) / TRIALS))
        assert abs(z) < Z_BOUND, (rate, p, truth, z)


def test_direct_exchange_equals_direct_without_interference():
    # reciprocal fading and no interference give SD and DS the same SINR,
    # so half the rate each way adds up to the direct rate exactly
    rates = run_point(QUIET, 2_000, (StrategyKind.DIRECT,
                                     StrategyKind.DIRECT_EXCHANGE))
    np.testing.assert_array_equal(rates[StrategyKind.DIRECT_EXCHANGE],
                                  rates[StrategyKind.DIRECT])


def test_blocked_direct_gives_zero_direct_rate():
    cfg = ScenarioConfig(distance_m=70.0, seed=SEED, blocked_direct=True)
    direct = run_point(cfg, 2_000, (StrategyKind.DIRECT,))[
        StrategyKind.DIRECT]
    assert not direct.any() and not np.signbit(direct).any()


def test_interferer_draws_match_their_distributions():
    # counts ~ U{min..max}; each drawn interferer shares the link's
    # channel with probability 1/16
    lo, hi = 0, 6
    block = draw_block(ScenarioConfig(seed=SEED, interferer_min=lo,
                                      interferer_max=hi), 0, TRIALS)
    drawn = block.interferer_mhz > 0
    counts = drawn.sum(axis=1)
    z = _z(counts.mean(), (lo + hi) / 2,
           counts.std(ddof=1) / TRIALS ** 0.5)
    assert abs(z) < Z_BOUND, (counts.mean(), z)
    cochannel = (block.interferer_mhz == block.carrier_mhz[:, None])[drawn]
    p = 1 / 16
    z = _z(cochannel.mean(), p, math.sqrt(p * (1 - p) / cochannel.size))
    assert abs(z) < Z_BOUND, (cochannel.mean(), z)

"""End-to-end checks of the engine's Monte Carlo output against known
answers: geometry, dB arithmetic, path loss, fading and aggregation
together.

With interference off, the direct link at the fixed distance L has the
SNR gbar_k * X on ZigBee channel k, X ~ Exp(1) (|h|^2 of unit-mean
Rayleigh fading), and k uniform on 11..26. The ergodic rate of Rayleigh
fading (Alouini & Goldsmith, IEEE Trans. VT 48(4), 1999) and the outage
probability then have closed forms, averaged over the 16 channels. The
seed, the size and the bound are fixed in advance; each statistical
check passes when |z| < Z_BOUND against the engine's own standard error.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from relaysim.montecarlo import run_point
from relaysim.scenario import ScenarioConfig, draw_block
from relaysim.strategies import StrategyKind

SEED = 11
TRIALS = 20_000
Z_BOUND = 5.0
RATE = 6.0  # bits/s/Hz, the target rate of the outage check

QUIET = ScenarioConfig(distance_m=70.0, seed=SEED,
                       interferer_power_dbm=-math.inf)


def _mean_snrs(cfg):
    """gbar_k of the direct link on each channel k = 11..26, from the
    link budget written out by hand: transmit power plus the antenna gain
    at both ends, minus ITU indoor path loss, over the noise power."""
    snrs = []
    for k in range(11, 27):
        f_mhz = 2405.0 + 5.0 * (k - 11)
        path_loss = 20.0 * math.log10(f_mhz) \
            + cfg.path_loss_coeff_db_per_decade \
            * math.log10(cfg.distance_m) - 28.0
        snr_db = cfg.tx_power_dbm + 2.0 * cfg.antenna_gain_db - path_loss \
            - cfg.noise_power_dbm
        snrs.append(10.0 ** (snr_db / 10.0))
    return np.array(snrs)


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

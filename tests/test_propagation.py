import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from relaysim.propagation import (
    DS,
    SD,
    SR1,
    dbm_to_mw,
    interference_mw,
    link_sinrs,
    mw_to_dbm,
    path_loss_db,
    received_mw,
)
from relaysim.scenario import (
    D,
    ScenarioConfig,
    TrialBlock,
    channel_frequency,
    draw_block,
    power_gain,
)


class TestPathLoss:
    def test_one_meter(self):
        assert path_loss_db(2405.0, 1.0, 28.0) == pytest.approx(39.62,
                                                                abs=0.01)

    def test_ten_meters(self):
        assert path_loss_db(2405.0, 10.0, 28.0) == pytest.approx(67.62,
                                                                 abs=0.01)

    def test_hundred_meters(self):
        assert path_loss_db(2405.0, 100.0, 28.0) == pytest.approx(95.62,
                                                                  abs=0.01)

    def test_clamps_below_one_meter(self):
        assert path_loss_db(2405.0, 0.0, 28.0) == \
            path_loss_db(2405.0, 1.0, 28.0)
        assert path_loss_db(2405.0, 0.3, 28.0) == \
            path_loss_db(2405.0, 1.0, 28.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, 10.0, 28.0)
        with pytest.raises(ValueError):
            path_loss_db(-2405.0, 10.0, 28.0)

    @given(st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1.001, max_value=10.0))
    def test_monotone_in_distance(self, d, factor):
        assert path_loss_db(2440.0, d * factor, 28.0) > \
            path_loss_db(2440.0, d, 28.0)


class TestDbConversions:
    @given(st.floats(min_value=-200.0, max_value=50.0))
    def test_dbm_round_trip(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, rel=1e-9,
                                                          abs=1e-9)

    def test_mw_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mw_to_dbm(0.0)


class TestFading:
    """|h|^2 as draw_block makes it from a link's pair of normals."""

    def test_unit_mean_square(self):
        rng = np.random.default_rng(0)
        h2 = power_gain(rng.standard_normal((200_000, 2)))
        assert abs(h2.mean() - 1.0) < 0.005

    def test_magnitude_squared_exponential(self):
        rng = np.random.default_rng(1)
        h2 = power_gain(rng.standard_normal((1_000_000, 2)))
        ks = stats.kstest(h2, "expon").statistic
        assert ks < 0.005


def _unit_fading_block(L, interferers=()):
    """A hand-built one-trial draw on channel 11 with |h| = 1 on every
    link, to be placed at distance L: relays at (L/2, 0) and (L/2, 1);
    interferers are (x, y, channel index) tuples, positions in m (all to
    rounding)."""
    n = len(interferers)
    return TrialBlock(
        carrier_mhz=np.array([2405.0]),
        relay_u=np.array([[(0.5, 0.5), (0.5, 0.5 + 1.0 / L)]]),
        interferer_u=np.array([(x / L, y / L + 0.5)
                               for x, y, _ in interferers],
                              dtype=float).reshape(1, n, 2),
        interferer_mhz=np.array([channel_frequency(k)
                                 for *_, k in interferers]).reshape(1, n),
        fading=np.ones((1, 5 + 4 * n)),
    )


def _sinr(block, cfg, link):
    return link_sinrs(block, cfg)[0, link]


class TestLinkSinr:
    def test_noise_limited_budget(self):
        # |h| = 1, no interference, 10 m: rx = 0 + 5 - 67.62 = -62.62 dBm;
        # SINR against -110 dBm noise is 47.38 dB
        cfg = ScenarioConfig(distance_m=10.0,
                             interferer_min=0, interferer_max=0)
        block = _unit_fading_block(10.0)
        sinr_db = 10 * math.log10(_sinr(block, cfg, SD))
        assert sinr_db == pytest.approx(47.38, abs=0.05)

    def test_blocked_direct_is_zero(self):
        cfg = ScenarioConfig(distance_m=10.0, blocked_direct=True,
                             interferer_min=0, interferer_max=0)
        block = _unit_fading_block(10.0)
        assert _sinr(block, cfg, SD) == 0.0
        assert _sinr(block, cfg, DS) == 0.0
        assert _sinr(block, cfg, SR1) > 0.0

    def test_colocated_interferer_gives_minus_3db(self):
        # co-channel interferer sitting on the source: identical path, so
        # SINR ~ 0 dBm / 3 dBm = -3 dB (noise negligible)
        cfg = ScenarioConfig(distance_m=10.0)
        block = _unit_fading_block(10.0, [(0.0, 0.0, 11)])
        sinr_db = 10 * math.log10(_sinr(block, cfg, SD))
        assert sinr_db == pytest.approx(-3.0, abs=0.1)

    def test_off_channel_interferer_ignored(self):
        cfg = ScenarioConfig(distance_m=10.0)
        block = _unit_fading_block(10.0, [(0.0, 0.0, 12)])
        sinr_db = 10 * math.log10(_sinr(block, cfg, SD))
        assert sinr_db == pytest.approx(47.38, abs=0.05)

    def test_monotone_decreasing_in_distance(self):
        cfg_template = dict(interferer_min=0, interferer_max=0)
        last = math.inf
        for L in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0):
            cfg = ScenarioConfig(distance_m=L, **cfg_template)
            sinr = _sinr(_unit_fading_block(L), cfg, SD)
            assert sinr < last
            last = sinr

    def test_interference_additivity(self):
        i1 = (3.0, 4.0, 11)
        i2 = (7.0, -2.0, 11)
        cfg = ScenarioConfig(distance_m=10.0)

        def at_d(*interferers):
            return interference_mw(_unit_fading_block(10.0, interferers),
                                   cfg)[0, D]

        both, only1, only2 = at_d(i1, i2), at_d(i1), at_d(i2)
        assert both == pytest.approx(only1 + only2, rel=1e-12)
        sig = _unit_fading_block(10.0, [i1, i2])
        noise = dbm_to_mw(cfg.noise_power_dbm)
        expected = _sinr(_unit_fading_block(10.0), cfg, SD) \
            * noise / (only1 + only2 + noise)
        assert _sinr(sig, cfg, SD) == pytest.approx(expected, rel=1e-12)


class TestLinkBudget:
    def test_rx_power_identity(self):
        # the dB budget with 20*log10|h| equals the linear one with |h|^2
        normals = np.array([0.5, 0.5]) / math.sqrt(0.5)
        h = abs(complex(*(normals * math.sqrt(0.5))))
        expected = 0.0 + 5.0 - 67.62 + 20 * math.log10(h)
        assert dbm_to_mw(expected) == pytest.approx(
            received_mw(0.0, 5.0, 67.62, power_gain(normals)), rel=1e-12)


class TestBuildLinkSet:
    """link_sinrs over a block of trials."""

    def test_matches_link_sinr(self):
        # a trial's SINRs do not depend on the block it is evaluated in
        cfg = ScenarioConfig(distance_m=70.0, seed=9)
        block = link_sinrs(draw_block(cfg, 0, 12), cfg)
        for t in range(12):
            alone = link_sinrs(draw_block(cfg, t, t + 1), cfg)[0]
            assert block[t] == pytest.approx(alone, rel=1e-12)

    def test_powers_nonnegative_and_noise_floor(self):
        cfg = ScenarioConfig(distance_m=70.0, seed=9)
        block = draw_block(cfg, 8, 9)
        assert np.all(interference_mw(block, cfg) >= 0.0)
        sinr = link_sinrs(block, cfg)
        assert np.all(sinr >= 0.0) and np.all(np.isfinite(sinr))
        quiet = ScenarioConfig(distance_m=70.0, seed=9,
                               interferer_power_dbm=float("-inf"))
        assert not interference_mw(block, quiet).any()  # noise alone

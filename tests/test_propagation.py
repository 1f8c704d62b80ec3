import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from relaysim import propagation
from relaysim.propagation import (
    DS,
    MIN_DISTANCE_M,
    SD,
    SR1,
    dbm_to_mw,
    interference_mw,
    link_sinrs,
    place,
    received_mw,
)
from relaysim.scenario import (
    D,
    PAYLOAD_PAIRS,
    ScenarioConfig,
    TrialBlock,
    _center_mhz,
    draw_block,
)

from signal_oracles import node_positions, path_loss_db, payload_gains


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
        with pytest.raises(ValueError):
            path_loss_db(np.array([2405.0, np.nan]), 10.0, 28.0)

    def test_rejects_flat_path_loss(self):
        with pytest.raises(ValueError, match="coefficient must be positive"):
            path_loss_db(2405.0, 10.0, 0.0)

    def test_empty_batch(self):
        # broadcasts an empty batch, as interference_mw's received_mw call
        # does for a block with no co-channel interferer
        empty = path_loss_db(np.empty((0, 1)), np.empty((3, 0, 4)), 28.0)
        assert empty.shape == (3, 0, 4)

    @given(st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1.001, max_value=10.0))
    def test_monotone_in_distance(self, d, factor):
        assert path_loss_db(2440.0, d * factor, 28.0) > \
            path_loss_db(2440.0, d, 28.0)


class TestDbConversions:
    @given(st.floats(min_value=-200.0, max_value=50.0))
    def test_dbm_round_trip(self, dbm):
        assert 10 * np.log10(dbm_to_mw(dbm)) == pytest.approx(
            dbm, rel=1e-9, abs=1e-9)


class TestFading:
    """|h|^2 as draw_block draws it for the payload links."""

    def test_unit_mean_square(self):
        h2 = payload_gains(0, 200_000)
        assert h2.size == 200_000
        assert abs(h2.mean() - 1.0) < 0.005

    def test_magnitude_squared_exponential(self):
        h2 = payload_gains(1, 1_000_000)
        assert h2.size == 1_000_000
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
        interferer_mhz=np.array([_center_mhz(k)
                                 for *_, k in interferers]).reshape(1, n),
        fading=np.ones((1, 5 + 4 * n)),
    )


def _sinr(block, cfg, link):
    return link_sinrs(block, cfg, cfg.distance_m)[0, link]


def _interference_mw(block, cfg, distance_m=None):
    """interference_mw of the block placed at distance_m (default
    cfg.distance_m), its relays placed as link_sinrs places them."""
    L = cfg.distance_m if distance_m is None else distance_m
    return interference_mw(block, cfg, place(block.relay_u, L), L)


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
            return _interference_mw(_unit_fading_block(10.0, interferers),
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
        # the dB budget with 20*log10|h| equals the linear one with |h|^2;
        # the 3-4-5 offset is 10 m, and both antennas add 2.5 dB
        h = abs(complex(0.5, 0.5))
        pl = 20 * math.log10(2405.0) + 28.0 * math.log10(10.0) - 28.0
        expected = 0.0 + 5.0 - pl + 20 * math.log10(h)
        assert received_mw(ScenarioConfig(), 0.0, 2405.0,
                           np.array([6.0, 8.0]), h * h) == pytest.approx(
            dbm_to_mw(expected), rel=1e-12)


class TestBuildLinkSet:
    """link_sinrs over a block of trials."""

    def test_matches_link_sinr(self):
        # a trial's SINRs do not depend on the block it is evaluated in
        cfg = ScenarioConfig(distance_m=70.0, seed=9)
        block = link_sinrs(draw_block(cfg, 0, 12), cfg, cfg.distance_m)
        for t in range(12):
            alone = link_sinrs(draw_block(cfg, t, t + 1), cfg,
                               cfg.distance_m)[0]
            assert block[t] == pytest.approx(alone, rel=1e-12)

    def test_powers_nonnegative_and_noise_floor(self):
        cfg = ScenarioConfig(distance_m=70.0, seed=9)
        block = draw_block(cfg, 8, 9)
        assert np.all(_interference_mw(block, cfg) >= 0.0)
        sinr = link_sinrs(block, cfg, cfg.distance_m)
        assert np.all(sinr >= 0.0) and np.all(np.isfinite(sinr))
        quiet = ScenarioConfig(distance_m=70.0, seed=9,
                               interferer_power_dbm=float("-inf"))
        assert not _interference_mw(block, quiet).any()  # noise alone


class TestDistanceAxis:
    """A 1-D array of distances gives the scalar calls' arrays, stacked,
    bit for bit."""

    DISTANCES = np.array([0.5 * MIN_DISTANCE_M, 10.0, 37.3, 70.0, 100.0])

    @pytest.mark.parametrize("scenario", [
        {},
        {"blocked_direct": True},
        {"interferer_power_dbm": float("-inf")},
        {"interferer_min": 9, "interferer_max": 12},
    ], ids=["default", "blocked_direct", "no_interference",
            "twelve_interferers"])
    def test_link_sinrs(self, scenario):
        cfg = ScenarioConfig(seed=31, **scenario)
        block = draw_block(cfg, 3, 203)
        # interferer_max=12 sums more than 8 terms, where numpy's pairwise
        # sum would no longer match the sequential one
        assert block.interferer_mhz.shape[1] == cfg.interferer_max
        stacked = np.stack([link_sinrs(block, cfg, d)
                            for d in self.DISTANCES])
        np.testing.assert_array_equal(
            link_sinrs(block, cfg, self.DISTANCES), stacked)
        np.testing.assert_array_equal(
            _interference_mw(block, cfg, self.DISTANCES),
            np.stack([_interference_mw(block, cfg, d)
                      for d in self.DISTANCES]))

    def test_place_and_node_positions(self):
        block = draw_block(ScenarioConfig(seed=32, interferer_max=5), 0, 40)
        for u in (block.relay_u, block.interferer_u, block.relay_u[3, 1]):
            np.testing.assert_array_equal(
                place(u, self.DISTANCES),
                np.stack([place(u, d) for d in self.DISTANCES]))
        nodes = node_positions(block, self.DISTANCES)
        assert nodes.shape == (len(self.DISTANCES), 40, 4, 2)
        np.testing.assert_array_equal(
            nodes, np.stack([node_positions(block, d)
                             for d in self.DISTANCES]))

    def test_scalar_keeps_shapes(self):
        block = draw_block(ScenarioConfig(seed=33), 0, 7)
        cfg = ScenarioConfig(seed=33)
        assert place(block.relay_u, 70.0).shape == (7, 2, 2)
        assert node_positions(block, 70.0).shape == (7, 4, 2)
        assert _interference_mw(block, cfg).shape == (7, 4)
        assert link_sinrs(block, cfg, 70.0).shape == (7, 8)

    @pytest.mark.parametrize("distance", [
        np.nan, -10.0, 0.0, np.inf, [10.0, np.nan], [0.0, 10.0],
        [[10.0, 20.0]], np.full((2, 1), 70.0)])
    def test_rejects_what_the_runs_reject(self, distance):
        # the run functions' checks, for callers of link_sinrs itself
        cfg = ScenarioConfig(seed=33)
        with pytest.raises(ValueError, match="^distance_m must be positive "
                                             "and finite, at most 1-D$"):
            link_sinrs(draw_block(cfg, 0, 7), cfg, distance)

    @pytest.mark.parametrize("distance", [70.0, DISTANCES])
    def test_nodes_placed_once_per_call(self, monkeypatch, distance):
        # the interference sum reads the relay positions link_sinrs placed
        # for the payload links
        cfg = ScenarioConfig(seed=34, interferer_min=12, interferer_max=12)
        block = draw_block(cfg, 0, 50)
        assert (block.interferer_mhz == block.carrier_mhz[:, None]).any()
        calls = []

        def counted(u, distance_m):
            calls.append(u is block.relay_u)
            return place(u, distance_m)

        monkeypatch.setattr(propagation, "place", counted)
        link_sinrs(block, cfg, distance)
        assert calls.count(True) == 1

    @pytest.mark.parametrize("trials, points", [(1024, 1), (50, 20)])
    def test_temporaries_per_row(self, trials, points):
        # about ROWS trial-points, as one distance or as 50 trials at 20
        # distances: the offsets come straight from the placed relays
        # and the SINRs are divided in place, so the memory a call takes at
        # its peak stays a small multiple of the SINRs it returns, with no
        # table of every node's position and no gathered copies of it
        cfg = ScenarioConfig(seed=35, interferer_min=0, interferer_max=6)
        block = draw_block(cfg, 0, trials)
        distances = np.linspace(10.0, 100.0, points) if points > 1 else 70.0
        link_sinrs(block, cfg, distances)
        tracemalloc.start()
        try:
            sinrs = link_sinrs(block, cfg, distances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sinrs.size == trials * points * 8
        assert peak <= 3.5 * sinrs.nbytes, peak / sinrs.nbytes


def _dense_interference_mw(block, config, distance_m=None):
    """Reference for interference_mw: the power of every (trial,
    interferer slot, node), padding included, masked to the co-channel
    slots and summed over the interferer axis."""
    trials, n = block.interferer_mhz.shape
    L = config.distance_m if distance_m is None else distance_m
    offset = place(block.interferer_u, L)[..., None, :] \
        - node_positions(block, L)[..., None, :, :]
    # the ITU budget in linear form: K f^-2 max(d^2, 1)^(-N/20) |h|^2
    k = dbm_to_mw(np.float64(config.interferer_power_dbm
                             + 2.0 * config.antenna_gain_db + 28.0))
    f = block.carrier_mhz[:, None, None]
    d2 = np.maximum(offset[..., 0] ** 2 + offset[..., 1] ** 2,
                    MIN_DISTANCE_M ** 2)
    fading = block.fading[:, len(PAYLOAD_PAIRS):].reshape(trials, n, 4)
    power = k / (f * f) * d2 ** (-config.path_loss_coeff_db_per_decade
                                 / 20.0) * fading
    cochannel = block.interferer_mhz == block.carrier_mhz[:, None]
    return np.where(cochannel[..., None], power, 0.0).sum(axis=-2)


class TestInterferenceOracle:
    """interference_mw computes only the co-channel pairs, yet equals the
    dense reference bit for bit, sign bits included."""

    DISTANCES = [None, 0.5 * MIN_DISTANCE_M, 70.0,
                 np.array([0.5 * MIN_DISTANCE_M, 10.0, 37.3, 100.0])]

    def _assert_matches(self, block, cfg):
        for d in self.DISTANCES:
            got = _interference_mw(block, cfg, d)
            want = _dense_interference_mw(block, cfg, d)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("scenario", [
        {},
        {"interferer_min": 0, "interferer_max": 6},
        {"interferer_min": 9, "interferer_max": 12},
        {"interferer_power_dbm": float("-inf")},
    ], ids=["default", "zero_to_six", "twelve", "no_power"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_drawn_blocks(self, scenario, seed):
        cfg = ScenarioConfig(seed=seed, **scenario)
        self._assert_matches(draw_block(cfg, 0, 256), cfg)
        self._assert_matches(draw_block(cfg, 17, 67), cfg)

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_all_cochannel_over_twelve_decades(self, n):
        # every slot on the link's channel and the fading of the slots
        # spread over 12 decades, in a different order per trial, so the
        # order of the additions shows in the bits (two terms commute,
        # hence n >= 3)
        cfg = ScenarioConfig(seed=7, interferer_min=n, interferer_max=n)
        block = draw_block(cfg, 0, 64)
        rng = np.random.default_rng(n)
        scale = rng.permuted(np.tile(np.logspace(-6, 6, n), (64, 1)), axis=1)
        forced = replace(
            block,
            interferer_mhz=np.repeat(block.carrier_mhz[:, None], n, axis=1),
            fading=np.concatenate(
                (block.fading[:, :len(PAYLOAD_PAIRS)],
                 (block.fading[:, len(PAYLOAD_PAIRS):].reshape(64, n, 4)
                  * scale[..., None]).reshape(64, 4 * n)), axis=1))
        self._assert_matches(forced, cfg)

    @pytest.mark.parametrize("n", [0, 12])
    def test_no_cochannel_interferer_gives_exact_zeros(self, n):
        cfg = ScenarioConfig(seed=8, interferer_min=n, interferer_max=n)
        block = draw_block(cfg, 0, 40)
        # every interferer one channel above the link's (2480 MHz is
        # channel 26, so it moves down to 2475)
        off = np.where(block.carrier_mhz < 2480.0, 5.0, -5.0)
        quiet = replace(block, interferer_mhz=np.repeat(
            (block.carrier_mhz + off)[:, None], n, axis=1))
        self._assert_matches(quiet, cfg)
        for d, shape in ((None, (40, 4)), (np.array([5.0, 50.0]), (2, 40, 4))):
            total = _interference_mw(quiet, cfg, d)
            assert total.shape == shape
            assert not total.any() and not np.signbit(total).any()

import dataclasses

import numpy as np
import pytest
from scipy import stats

from relaysim.propagation import DS, R1S, SD, SR1, link_sinrs
from relaysim.scenario import (
    CHANNEL_INDEX_MAX,
    CHANNEL_INDEX_MIN,
    D,
    R1,
    R2,
    S,
    ScenarioConfig,
    channel_frequency,
    draw_block,
    trial_stream,
)

CARRIERS_MHZ = [channel_frequency(k)
                for k in range(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1)]


def _blocks_equal(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def _drawn(block, t):
    """Interferer positions trial t drew; padding has carrier 0."""
    return block.interferer_xy[t][block.interferer_mhz[t] > 0]


class TestChannelFrequency:
    def test_lower_bound(self):
        assert channel_frequency(11) == 2405.0

    def test_upper_bound(self):
        assert channel_frequency(26) == 2480.0

    def test_spacing(self):
        assert channel_frequency(12) - channel_frequency(11) == 5.0

    @pytest.mark.parametrize("k", [10, 27, 0, -3])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError, match=r"\[11, 26\]"):
            channel_frequency(k)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.tx_power_dbm == 0.0
        assert cfg.interferer_power_dbm == 3.0
        assert cfg.antenna_gain_db == 2.5
        assert cfg.noise_power_dbm == -110.0
        assert cfg.path_loss_coeff_db_per_decade == 28.0
        assert cfg.interferer_count_range == (1, 3)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="distance_m"):
            ScenarioConfig(distance_m=-5.0)
        with pytest.raises(ValueError, match="distance_m"):
            ScenarioConfig(distance_m=0.0)

    def test_rejects_bad_interferer_range(self):
        with pytest.raises(ValueError, match="interferer_count_range"):
            ScenarioConfig(interferer_count_range=(3, 1))
        with pytest.raises(ValueError, match="interferer_count_range"):
            ScenarioConfig(interferer_count_range=(-1, 2))

    def test_rejects_nonfinite_power(self):
        with pytest.raises(ValueError):
            ScenarioConfig(tx_power_dbm=float("nan"))

    def test_neg_inf_interferer_power_disables_interference(self):
        cfg = ScenarioConfig(interferer_power_dbm=float("-inf"))
        assert cfg.interferer_power_dbm == float("-inf")


class TestSampling:
    def test_box_containment(self):
        cfg = ScenarioConfig(distance_m=100.0, master_seed=7)
        block = draw_block(cfg, 0, 200)
        for t in range(200):
            for x, y in [*block.node_xy[t, [R1, R2]], *_drawn(block, t)]:
                assert 0.0 <= x <= 100.0
                assert -50.0 <= y <= 50.0

    def test_endpoints_fixed(self):
        cfg = ScenarioConfig(distance_m=80.0)
        block = draw_block(cfg, 0, 1)
        assert tuple(block.node_xy[0, S]) == (0.0, 0.0)
        assert tuple(block.node_xy[0, D]) == (80.0, 0.0)

    def test_determinism(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=99)
        a = draw_block(cfg, 17, 18)
        b = draw_block(cfg, 17, 18)
        assert _blocks_equal(a, b)

    def test_trials_differ(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=99)
        assert not _blocks_equal(draw_block(cfg, 0, 1), draw_block(cfg, 1, 2))

    def test_block_rows_match_single_trials(self):
        # a trial's draws do not depend on the block it is drawn in
        cfg = ScenarioConfig(interferer_count_range=(0, 6), master_seed=19)
        block = draw_block(cfg, 3, 11)
        for t in range(8):
            alone = draw_block(cfg, 3 + t, 4 + t)
            for f in dataclasses.fields(block):
                np.testing.assert_array_equal(getattr(block, f.name)[t],
                                              getattr(alone, f.name)[0])

    def test_draws_follow_contract_order(self):
        # reference: the contract's draws made one call at a time
        cfg = ScenarioConfig(distance_m=30.0, interferer_count_range=(0, 4),
                             master_seed=29)
        L = cfg.distance_m
        block = draw_block(cfg, 5, 45)
        for t in range(40):
            rng = trial_stream(cfg.master_seed, 5 + t)
            assert block.carrier_mhz[t] == channel_frequency(
                rng.integers(11, 27))
            for relay in (R1, R2):
                assert tuple(block.node_xy[t, relay]) == (
                    rng.uniform(0.0, L), rng.uniform(-L / 2, L / 2))
            n = rng.integers(0, 5)
            for j in range(n):
                assert tuple(block.interferer_xy[t, j]) == (
                    rng.uniform(0.0, L), rng.uniform(-L / 2, L / 2))
                assert block.interferer_mhz[t, j] == channel_frequency(
                    rng.integers(11, 27))
            assert not block.interferer_mhz[t, n:].any()
            for gain in block.fading[t, :5 + 4 * n]:
                np.testing.assert_array_equal(gain, rng.standard_normal(2))
            assert not block.fading[t, 5 + 4 * n:].any()

    def test_interferer_count_in_range(self):
        cfg = ScenarioConfig(interferer_count_range=(1, 3), master_seed=3)
        block = draw_block(cfg, 0, 300)
        counts = set((block.interferer_mhz > 0).sum(axis=1).tolist())
        assert counts == {1, 2, 3}

    def test_channel_index_valid(self):
        cfg = ScenarioConfig(master_seed=5)
        block = draw_block(cfg, 0, 100)
        interferers = block.interferer_mhz[block.interferer_mhz > 0]
        drawn = np.concatenate([block.carrier_mhz, interferers])
        assert set(drawn.tolist()) <= set(CARRIERS_MHZ)

    def test_relay_x_mean(self):
        # law of large numbers: mean of Uniform[0, 100] is 50
        cfg = ScenarioConfig(distance_m=100.0, master_seed=11)
        xs = draw_block(cfg, 0, 10_000).node_xy[:, R1, 0]
        assert abs(xs.mean() - 50.0) < 1.5

    def test_relay_x_uniform_ks(self):
        cfg = ScenarioConfig(distance_m=100.0, master_seed=13)
        xs = draw_block(cfg, 0, 10_000).node_xy[:, R1, 0]
        ks = stats.kstest(xs / 100.0, "uniform").statistic
        assert ks < 0.02

    def test_channel_index_frequencies(self):
        cfg = ScenarioConfig(master_seed=17)
        carriers = draw_block(cfg, 0, 16_000).carrier_mhz
        for mhz in CARRIERS_MHZ:
            rel = np.mean(carriers == mhz)
            assert abs(rel - 1 / 16) < 0.01

    def test_fading_reciprocal_on_payload_links(self):
        # without interference a link's SINR is its signal over noise, so
        # one fading gain per pair gives equal SINRs in both directions
        cfg = ScenarioConfig(master_seed=23,
                             interferer_power_dbm=float("-inf"))
        sinr = link_sinrs(draw_block(cfg, 4, 5), cfg)[0]
        assert sinr[SD] == sinr[DS]
        assert sinr[SR1] == sinr[R1S]


class TestTrialStream:
    def test_streams_reproducible(self):
        a = trial_stream(123, 7).standard_normal(5)
        b = trial_stream(123, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent_by_index(self):
        a = trial_stream(123, 7).standard_normal(5)
        b = trial_stream(123, 8).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_distance_change_keeps_unit_draws(self):
        # same seed/index at two distances scales the geometry, since the
        # underlying uniform draws are identical
        c1 = ScenarioConfig(distance_m=50.0, master_seed=31)
        c2 = ScenarioConfig(distance_m=100.0, master_seed=31)
        s1 = draw_block(c1, 2, 3)
        s2 = draw_block(c2, 2, 3)
        assert s1.carrier_mhz[0] == s2.carrier_mhz[0]
        assert s1.node_xy[0, R1, 0] * 2 == pytest.approx(s2.node_xy[0, R1, 0])


def test_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.distance_m = 5.0

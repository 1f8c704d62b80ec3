import dataclasses

import numpy as np
import pytest
from scipy import stats

from relaysim.scenario import (
    CHANNEL_INDEX_MAX,
    CHANNEL_INDEX_MIN,
    Position,
    ScenarioConfig,
    channel_frequency,
    sample_positions,
    trial_stream,
)


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
        for i in range(200):
            s = sample_positions(cfg, i)
            for pos in s.relay_positions:
                assert 0.0 <= pos.x <= 100.0
                assert -50.0 <= pos.y <= 50.0
            for interferer in s.interferers:
                assert 0.0 <= interferer.position.x <= 100.0
                assert -50.0 <= interferer.position.y <= 50.0

    def test_endpoints_fixed(self):
        cfg = ScenarioConfig(distance_m=80.0)
        s = sample_positions(cfg, 0)
        assert s.source_pos == Position(0.0, 0.0)
        assert s.destination_pos == Position(80.0, 0.0)

    def test_determinism(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=99)
        a = sample_positions(cfg, 17)
        b = sample_positions(cfg, 17)
        assert a == b

    def test_trials_differ(self):
        cfg = ScenarioConfig(distance_m=60.0, master_seed=99)
        assert sample_positions(cfg, 0) != sample_positions(cfg, 1)

    def test_interferer_count_in_range(self):
        cfg = ScenarioConfig(interferer_count_range=(1, 3), master_seed=3)
        counts = {len(sample_positions(cfg, i).interferers)
                  for i in range(300)}
        assert counts == {1, 2, 3}

    def test_channel_index_valid(self):
        cfg = ScenarioConfig(master_seed=5)
        for i in range(100):
            s = sample_positions(cfg, i)
            assert CHANNEL_INDEX_MIN <= s.channel_index <= CHANNEL_INDEX_MAX
            assert s.carrier_freq_mhz == channel_frequency(s.channel_index)

    def test_relay_x_mean(self):
        # law of large numbers: mean of Uniform[0, 100] is 50
        cfg = ScenarioConfig(distance_m=100.0, master_seed=11)
        xs = np.array([sample_positions(cfg, i).relay_positions[0].x
                       for i in range(10_000)])
        assert abs(xs.mean() - 50.0) < 1.5

    def test_relay_x_uniform_ks(self):
        cfg = ScenarioConfig(distance_m=100.0, master_seed=13)
        xs = np.array([sample_positions(cfg, i).relay_positions[0].x
                       for i in range(10_000)])
        ks = stats.kstest(xs / 100.0, "uniform").statistic
        assert ks < 0.02

    def test_channel_index_frequencies(self):
        cfg = ScenarioConfig(master_seed=17)
        ks = np.array([sample_positions(cfg, i).channel_index
                       for i in range(16_000)])
        for k in range(11, 27):
            rel = np.mean(ks == k)
            assert abs(rel - 1 / 16) < 0.01

    def test_fading_reciprocal_on_payload_links(self):
        cfg = ScenarioConfig(master_seed=23)
        s = sample_positions(cfg, 4)
        assert s.fading[("S", "D")] == s.fading[("D", "S")]
        assert s.fading[("S", "R1")] == s.fading[("R1", "S")]


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
        s1 = sample_positions(c1, 2)
        s2 = sample_positions(c2, 2)
        assert s1.channel_index == s2.channel_index
        assert s1.relay_positions[0].x * 2 == pytest.approx(
            s2.relay_positions[0].x)


def test_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.distance_m = 5.0

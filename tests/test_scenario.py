import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from relaysim.propagation import DS, R1S, SD, SR1, link_sinrs, place
from relaysim.scenario import (
    BLOCK_TRIALS,
    CHANNEL_INDEX_MAX,
    CHANNEL_INDEX_MIN,
    D,
    R1,
    R2,
    RNG_CONTRACT,
    S,
    ScenarioConfig,
    draw_block,
    _center_mhz,
)

from signal_oracles import node_positions

CARRIERS_MHZ = [_center_mhz(k)
                for k in range(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1)]


def _blocks_equal(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def _reference_block(cfg, b):
    """Contract block b made by hand: its stream, then the six draws in
    order, with positions drawn in metres at cfg.distance_m."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,))))
    B, L, n = BLOCK_TRIALS, cfg.distance_m, cfg.interferer_max
    low, high = (0.0, -L / 2), (L, L / 2)
    return (rng.integers(11, 27, B), rng.uniform(low, high, (B, 2, 2)),
            rng.integers(cfg.interferer_min, n + 1, B),
            rng.uniform(low, high, (B, n, 2)), rng.integers(11, 27, (B, n)),
            rng.standard_exponential((B, 5 + 4 * n)))


def _drawn(block, t):
    """Interferer position variates trial t drew; padding has carrier 0."""
    return block.interferer_u[t][block.interferer_mhz[t] > 0]


class TestChannelFrequency:
    def test_lower_bound(self):
        assert _center_mhz(11) == 2405.0

    def test_upper_bound(self):
        assert _center_mhz(26) == 2480.0

    def test_spacing(self):
        assert _center_mhz(12) - _center_mhz(11) == 5.0


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.tx_power_dbm == 0.0
        assert cfg.interferer_power_dbm == 3.0
        assert cfg.antenna_gain_db == 2.5
        assert cfg.noise_power_dbm == -110.0
        assert cfg.path_loss_coeff_db_per_decade == 28.0
        assert (cfg.interferer_min, cfg.interferer_max) == (1, 3)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="distance_m"):
            ScenarioConfig(distance_m=-5.0)
        with pytest.raises(ValueError, match="distance_m"):
            ScenarioConfig(distance_m=0.0)

    def test_rejects_bad_interferer_range(self):
        with pytest.raises(ValueError, match="interferer_min and"):
            ScenarioConfig(interferer_min=3, interferer_max=1)
        with pytest.raises(ValueError, match="interferer_min and"):
            ScenarioConfig(interferer_min=-1, interferer_max=2)

    @pytest.mark.parametrize("field, value, message", [
        ("blocked_direct", "no", "blocked_direct must be a boolean"),
        ("blocked_direct", 1, "blocked_direct must be a boolean"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("interferer_min", 1.0, "interferer_min must be an integer"),
        ("interferer_max", 2.5, "interferer_max must be an integer"),
        # well typed, but out of range
        ("interferer_power_dbm", float("nan"),
         "interferer_power_dbm must be finite or -inf"),
        ("interferer_power_dbm", float("inf"),
         "interferer_power_dbm must be finite or -inf"),
        ("path_loss_coeff_db_per_decade", 0.0,
         "path_loss_coeff_db_per_decade must be > 0"),
    ])
    def test_rejects_mistyped_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = ScenarioConfig(seed=np.uint64(2**63), interferer_max=np.int64(4))
        assert (cfg.seed, cfg.interferer_max) == (2**63, 4)

    def test_rejects_nonfinite_power(self):
        with pytest.raises(ValueError):
            ScenarioConfig(tx_power_dbm=float("nan"))

    def test_neg_inf_interferer_power_disables_interference(self):
        cfg = ScenarioConfig(interferer_power_dbm=float("-inf"))
        assert cfg.interferer_power_dbm == float("-inf")


class TestSampling:
    def test_box_containment(self):
        cfg = ScenarioConfig(distance_m=100.0, seed=7)
        block = draw_block(cfg, 0, 200)
        nodes = node_positions(block, 100.0)
        for t in range(200):
            for x, y in [*nodes[t, [R1, R2]],
                         *place(_drawn(block, t), 100.0)]:
                assert 0.0 <= x <= 100.0
                assert -50.0 <= y <= 50.0

    def test_endpoints_fixed(self):
        cfg = ScenarioConfig(distance_m=80.0)
        nodes = node_positions(draw_block(cfg, 0, 1), 80.0)
        assert tuple(nodes[0, S]) == (0.0, 0.0)
        assert tuple(nodes[0, D]) == (80.0, 0.0)

    def test_determinism(self):
        cfg = ScenarioConfig(distance_m=60.0, seed=99)
        a = draw_block(cfg, 17, 18)
        b = draw_block(cfg, 17, 18)
        assert _blocks_equal(a, b)

    def test_trials_differ(self):
        cfg = ScenarioConfig(distance_m=60.0, seed=99)
        assert not _blocks_equal(draw_block(cfg, 0, 1), draw_block(cfg, 1, 2))

    def test_block_rows_match_single_trials(self):
        # a trial's draws do not depend on the range it is drawn in, also
        # across a block boundary
        cfg = ScenarioConfig(interferer_min=0, interferer_max=6, seed=19)
        first = BLOCK_TRIALS - 4
        block = draw_block(cfg, first, BLOCK_TRIALS + 4)
        for t in range(8):
            alone = draw_block(cfg, first + t, first + t + 1)
            for f in dataclasses.fields(block):
                np.testing.assert_array_equal(getattr(block, f.name)[t],
                                              getattr(alone, f.name)[0])

    def test_draws_follow_contract_order(self):
        # reference: each contract block's stream and draws made by hand
        cfg = ScenarioConfig(distance_m=30.0, interferer_min=0,
                             interferer_max=4, seed=29)
        L = cfg.distance_m
        first = BLOCK_TRIALS - 20
        block = draw_block(cfg, first, BLOCK_TRIALS + 20)
        nodes = node_positions(block, L)
        blocks = {b: _reference_block(cfg, b) for b in (0, 1)}
        for t in range(40):
            b, row = divmod(first + t, BLOCK_TRIALS)
            k, relays, counts, positions, ks, gains = blocks[b]
            assert block.carrier_mhz[t] == _center_mhz(k[row])
            np.testing.assert_array_equal(nodes[t, [R1, R2]], relays[row])
            n = counts[row]
            for j in range(n):
                assert tuple(place(block.interferer_u[t, j], L)) == \
                    tuple(positions[row, j])
                assert block.interferer_mhz[t, j] == _center_mhz(
                    ks[row, j])
            assert not block.interferer_mhz[t, n:].any()
            # padding is marked by carrier 0 alone: its gains are as drawn
            np.testing.assert_array_equal(block.fading[t], gains[row])

    @pytest.mark.parametrize("lo, hi", [(1, 3), (0, 6)])
    def test_draws_in_place(self, lo, hi):
        # the draws are made into the arrays the block returns: the memory
        # a call takes at its peak stays well under two copies of the block
        cfg = ScenarioConfig(seed=3, interferer_min=lo, interferer_max=hi)
        draw_block(cfg, 0, 2 * BLOCK_TRIALS)
        tracemalloc.start()
        try:
            block = draw_block(cfg, 0, 2 * BLOCK_TRIALS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(getattr(block, f.name).nbytes
                   for f in dataclasses.fields(block))
        assert peak <= 1.5 * size, peak / size

    @pytest.mark.parametrize("start, stop", [(5, 5), (4, 2), (-1, 3)])
    def test_rejects_empty_or_negative_range(self, start, stop):
        with pytest.raises(ValueError, match="trial range"):
            draw_block(ScenarioConfig(), start, stop)

    def test_interferer_count_in_range(self):
        cfg = ScenarioConfig(interferer_min=1, interferer_max=3, seed=3)
        block = draw_block(cfg, 0, 300)
        counts = set((block.interferer_mhz > 0).sum(axis=1).tolist())
        assert counts == {1, 2, 3}

    def test_channel_index_valid(self):
        cfg = ScenarioConfig(seed=5)
        block = draw_block(cfg, 0, 100)
        interferers = block.interferer_mhz[block.interferer_mhz > 0]
        drawn = np.concatenate([block.carrier_mhz, interferers])
        assert set(drawn.tolist()) <= set(CARRIERS_MHZ)

    def test_relay_x_mean(self):
        # law of large numbers: mean of Uniform[0, 100] is 50
        cfg = ScenarioConfig(distance_m=100.0, seed=11)
        xs = node_positions(draw_block(cfg, 0, 10_000), 100.0)[:, R1, 0]
        assert abs(xs.mean() - 50.0) < 1.5

    def test_relay_x_uniform_ks(self):
        cfg = ScenarioConfig(distance_m=100.0, seed=13)
        xs = node_positions(draw_block(cfg, 0, 10_000), 100.0)[:, R1, 0]
        ks = stats.kstest(xs / 100.0, "uniform").statistic
        assert ks < 0.02

    def test_channel_index_frequencies(self):
        cfg = ScenarioConfig(seed=17)
        carriers = draw_block(cfg, 0, 16_000).carrier_mhz
        for mhz in CARRIERS_MHZ:
            rel = np.mean(carriers == mhz)
            assert abs(rel - 1 / 16) < 0.01

    def test_fading_reciprocal_on_payload_links(self):
        # without interference a link's SINR is its signal over noise, so
        # one fading gain per pair gives equal SINRs in both directions
        cfg = ScenarioConfig(seed=23, interferer_power_dbm=float("-inf"))
        sinr = link_sinrs(draw_block(cfg, 4, 5), cfg, cfg.distance_m)[0]
        assert sinr[SD] == sinr[DS]
        assert sinr[SR1] == sinr[R1S]


class TestBlockStream:
    def test_block_reproducible(self):
        cfg = ScenarioConfig(seed=123, interferer_min=0, interferer_max=4)
        b = BLOCK_TRIALS
        a = draw_block(cfg, b, 2 * b)
        assert _blocks_equal(a, draw_block(cfg, b, 2 * b))
        whole = draw_block(cfg, 0, 3 * b)
        for f in dataclasses.fields(a):
            np.testing.assert_array_equal(getattr(a, f.name),
                                          getattr(whole, f.name)[b:2 * b])

    def test_blocks_differ_by_index(self):
        cfg = ScenarioConfig(seed=123, interferer_min=0, interferer_max=4)
        b = BLOCK_TRIALS
        first, second = draw_block(cfg, 0, b), draw_block(cfg, b, 2 * b)
        for f in dataclasses.fields(first):
            assert not np.array_equal(getattr(first, f.name),
                                      getattr(second, f.name))

    def test_known_answer(self):
        # pins the contract: a changed stream, block size or draw order
        # changes these values and must bump RNG_CONTRACT
        assert RNG_CONTRACT == ("v3: PCG64(SeedSequence(entropy=seed, "
                                "spawn_key=(block,))) per block of 256 "
                                "trials, Exp(1) link power gains")
        cfg = ScenarioConfig(seed=2012)
        expected = {
            0: (2465.0, [0.6861902945124969, 0.8981197538163238,
                         0.3685811075561187, 0.07685042583072799]),
            BLOCK_TRIALS + 1: (2410.0, [0.42477458362867826,
                                        0.5342775816624014,
                                        0.8146481470205729,
                                        0.6000670475948124]),
        }
        for t, (carrier, relay_u) in expected.items():
            block = draw_block(cfg, t, t + 1)
            assert block.carrier_mhz[0] == carrier
            assert block.relay_u[0].ravel().tolist() == relay_u
        # the payload gains of trial 0: draw 6, after the five others
        assert draw_block(cfg, 0, 1).fading[0, :5].tolist() == [
            0.4137363350632603, 2.211358169808917, 0.23952554382992566,
            1.0330739588375935, 2.241492255760416]

    def test_distance_change_keeps_unit_draws(self):
        # the draws do not depend on the distance: link_sinrs places them
        c1 = ScenarioConfig(distance_m=50.0, seed=31)
        c2 = ScenarioConfig(distance_m=100.0, seed=31)
        assert _blocks_equal(draw_block(c1, 2, 3), draw_block(c2, 2, 3))


def test_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.distance_m = 5.0

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaysim.propagation import DR1, DS, R1D, R1S, R2D, SD, SR1, SR2
from relaysim.strategies import (
    ALL_STRATEGIES,
    StrategyKind,
    af_equivalent_snr,
    rate_af_beamform2,
    rate_af_single,
    rate_df_beamform2,
    rate_df_single,
    rate_direct,
    rate_exchange,
    rate_twoway_af,
    rate_twoway_df,
    strategy_rates,
    twoway_af_snrs,
)

snr = st.floats(min_value=0.0, max_value=1e9)
snr_pos = st.floats(min_value=1e-6, max_value=1e9)


class TestDirect:
    @pytest.mark.parametrize("g,expected", [(0.0, 0.0), (1.0, 1.0),
                                            (3.0, 2.0)])
    def test_values(self, g, expected):
        assert rate_direct(g) == pytest.approx(expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_direct(-0.1)


class TestAfEquivalentSnr:
    def test_dead_hop(self):
        assert af_equivalent_snr(0.0, 5.0) == 0.0
        assert af_equivalent_snr(5.0, 0.0) == 0.0

    def test_symmetric(self):
        assert af_equivalent_snr(3.0, 3.0) == pytest.approx(9 / 7)

    def test_strong_first_hop_limit(self):
        assert af_equivalent_snr(1e6, 5.0) == pytest.approx(5.0, abs=0.01)

    @given(snr_pos, snr_pos)
    def test_below_both_hops(self, g1, g2):
        eq = af_equivalent_snr(g1, g2)
        assert eq < min(g1, g2)


class TestAfSingle:
    def test_all_zero(self):
        assert rate_af_single(0.0, 0.0, 0.0) == 0.0

    def test_example(self):
        # 0.5*log2(1 + 1 + 9/7) = 0.5*log2(23/7)
        assert rate_af_single(1.0, 3.0, 3.0) == pytest.approx(
            0.5 * math.log2(23 / 7))

    def test_dead_relay_is_half_direct(self):
        for g in (0.5, 2.0, 100.0):
            assert rate_af_single(g, 0.0, 0.0) == pytest.approx(
                0.5 * rate_direct(g))

    @given(snr, snr, snr, snr_pos)
    def test_monotone_in_direct_snr(self, g_sd, g_sr, g_rd, bump):
        assert rate_af_single(g_sd + bump, g_sr, g_rd) >= \
            rate_af_single(g_sd, g_sr, g_rd)

    @given(snr, snr, snr, snr_pos)
    def test_monotone_in_relay_snr(self, g_sd, g_sr, g_rd, bump):
        assert rate_af_single(g_sd, g_sr + bump, g_rd) >= \
            rate_af_single(g_sd, g_sr, g_rd)

    @given(snr, snr, snr)
    def test_half_duplex_ceiling(self, g_sd, g_sr, g_rd):
        total = g_sd + min(g_sr, g_rd)  # AF equivalent never beats a hop
        assert rate_af_single(g_sd, g_sr, g_rd) <= \
            0.5 * math.log2(1 + total) + 1e-12


class TestDfSingle:
    def test_relay_limited(self):
        assert rate_df_single(1.0, 15.0, 2.0) == pytest.approx(1.0)

    def test_relay_cannot_decode(self):
        assert rate_df_single(5.0, 0.0, 7.0) == 0.0

    def test_destination_limited(self):
        assert rate_df_single(0.0, 1e6, 3.0) == pytest.approx(1.0)

    @given(snr, snr, snr, snr_pos)
    def test_monotone(self, g_sd, g_sr, g_rd, bump):
        base = rate_df_single(g_sd, g_sr, g_rd)
        assert rate_df_single(g_sd + bump, g_sr, g_rd) >= base
        assert rate_df_single(g_sd, g_sr + bump, g_rd) >= base
        assert rate_df_single(g_sd, g_sr, g_rd + bump) >= base


class TestAfBeamform2:
    def test_dead_relays_degenerate_to_half_direct(self):
        assert rate_af_beamform2(3.0, 0.0, 0.0, 0.0, 0.0) == \
            pytest.approx(1.0)

    def test_equal_relays(self):
        # each path 9/7; coherent sum (2*sqrt(9/7))^2 = 36/7
        assert rate_af_beamform2(0.0, 3.0, 3.0, 3.0, 3.0) == pytest.approx(
            0.5 * math.log2(1 + 36 / 7))

    @given(snr, snr_pos, snr_pos)
    def test_dominates_single_relay(self, g_sd, g_sr, g_rd):
        # (2*sqrt(g))^2 = 4g > g; ties only possible in floating point
        # when g_sd dwarfs the relay contribution
        assert rate_af_beamform2(g_sd, g_sr, g_rd, g_sr, g_rd) >= \
            rate_af_single(g_sd, g_sr, g_rd)

    @given(snr_pos, snr_pos)
    def test_strictly_dominates_without_direct_link(self, g_sr, g_rd):
        assert rate_af_beamform2(0.0, g_sr, g_rd, g_sr, g_rd) > \
            rate_af_single(0.0, g_sr, g_rd)

    def test_equality_only_at_zero(self):
        assert rate_af_beamform2(0.0, 0.0, 0.0, 0.0, 0.0) == \
            rate_af_single(0.0, 0.0, 0.0) == 0.0


class TestDfBeamform2:
    def test_weak_source_relay_link_binds(self):
        # min(log2 16, log2 4, log2 26) -> the source->relay-2 hop
        assert rate_df_beamform2(0.0, 15.0, 4.0, 3.0, 9.0) == \
            pytest.approx(1.0)

    def test_any_undecodable_relay_stalls(self):
        assert rate_df_beamform2(5.0, 8.0, 9.0, 0.0, 9.0) == 0.0

    def test_destination_limited(self):
        assert rate_df_beamform2(0.0, 1e6, 4.0, 1e6, 9.0) == pytest.approx(
            0.5 * math.log2(26))

    @given(snr, snr_pos, snr, snr, snr)
    def test_extra_relay_never_raises_decode_bound(self, g_sd, g_sr1,
                                                   g_r1d, g_sr2, g_r2d):
        bound = 0.5 * math.log2(1 + min(g_sr1, g_sr2))
        assert rate_df_beamform2(g_sd, g_sr1, g_r1d, g_sr2, g_r2d) <= \
            bound + 1e-12


class TestTwoWayAf:
    def test_dead_link_kills_both(self):
        assert twoway_af_snrs(0.0, 7.0) == (0.0, 0.0)
        assert twoway_af_snrs(7.0, 0.0) == (0.0, 0.0)

    def test_symmetric_point(self):
        a, b = twoway_af_snrs(10.0, 10.0)
        assert a == pytest.approx(100 / 31)
        assert b == pytest.approx(100 / 31)

    def test_asymmetric_limit(self):
        a, _ = twoway_af_snrs(1e6, 5.0)
        assert a == pytest.approx(5e6 / (2e6 + 6), rel=1e-9)

    def test_rate_symmetric_point(self):
        per_direction = rate_twoway_af(10.0, 10.0)
        assert sum(per_direction) == pytest.approx(math.log2(131 / 31))
        assert per_direction[0] == per_direction[1]

    def test_zero(self):
        assert sum(rate_twoway_af(0.0, 0.0)) == 0.0

    @given(snr, snr)
    def test_sum_rate_symmetric_under_swap(self, a, b):
        assert sum(rate_twoway_af(a, b)) == pytest.approx(
            sum(rate_twoway_af(b, a)))

    @given(snr, snr)
    def test_per_direction_sums(self, a, b):
        rate = strategy_rates(_sinrs(sr=a, dr=b), (StrategyKind.TWOWAY_AF,))
        assert rate[0] == pytest.approx(sum(rate_twoway_af(a, b)))


class TestTwoWayDf:
    def test_zero(self):
        assert sum(rate_twoway_df(0.0, 0.0)) == 0.0

    def test_tie_decodes_a_first(self):
        a_to_b, b_to_a = rate_twoway_df(10.0, 10.0)
        assert a_to_b == pytest.approx(0.5 * math.log2(21 / 11))
        assert b_to_a == pytest.approx(0.5 * math.log2(11))
        assert a_to_b + b_to_a == pytest.approx(2.19622, abs=1e-4)

    def test_mac_rates_hit_sic_corner_point(self):
        # successive decoding achieves the MAC sum capacity
        for g_a, g_b in [(10.0, 3.0), (2.0, 8.0), (5.0, 5.0)]:
            if g_a >= g_b:
                r1 = math.log2(1 + g_a / (1 + g_b))
                r2 = math.log2(1 + g_b)
            else:
                r1 = math.log2(1 + g_a)
                r2 = math.log2(1 + g_b / (1 + g_a))
            assert r1 + r2 == pytest.approx(math.log2(1 + g_a + g_b))

    @pytest.mark.parametrize("g_a,g_b_weak,g_b_strong",
                             [(20.0, 10.0, 15.0), (50.0, 12.0, 40.0),
                              (8.0, 2.5, 6.0)])
    def test_first_decoded_degrades_with_interference(self, g_a, g_b_weak,
                                                      g_b_strong):
        # A is decoded first and its MAC rate binds in all cases below;
        # a stronger co-transmission from B lowers A's direction rate
        first = rate_twoway_df(g_a, g_b_weak)[0]
        worse = rate_twoway_df(g_a, g_b_strong)[0]
        assert worse < first

    @given(snr, snr)
    def test_per_direction_sums(self, a, b):
        rate = strategy_rates(_sinrs(sr=a, dr=b), (StrategyKind.TWOWAY_DF,))
        assert rate[0] == pytest.approx(sum(rate_twoway_df(a, b)))


def _sinrs(sd=0.0, ds=0.0, sr=0.0, rd=0.0, dr=0.0, rs=0.0, sr2=0.0,
           r2d=0.0):
    """One trial's directed payload SINRs in link_sinrs column order."""
    sinr = np.zeros(8)
    sinr[[SD, DS, SR1, R1D, DR1, R1S, SR2, R2D]] = (sd, ds, sr, rd, dr, rs,
                                                     sr2, r2d)
    return sinr


_EXCHANGES = (
    (StrategyKind.DIRECT_EXCHANGE, rate_direct, (SD, DS)),
    (StrategyKind.UNI_AF_EXCHANGE, rate_af_single,
     (SD, SR1, R1D, DS, DR1, R1S)),
    (StrategyKind.UNI_DF_EXCHANGE, rate_df_single,
     (SD, SR1, R1D, DS, DR1, R1S)),
)


def _rate(kind, sinr):
    return strategy_rates(sinr, (kind,))[0]


class TestExchangeBaselines:
    def test_direct_exchange_symmetric(self):
        sinr = _sinrs(sd=3.0, ds=3.0)
        assert _rate(StrategyKind.DIRECT_EXCHANGE, sinr) == \
            pytest.approx(2.0)

    def test_all_zero(self):
        for kind, _, _ in _EXCHANGES:
            assert _rate(kind, _sinrs()) == 0.0

    def test_uni_af_exchange_symmetric(self):
        sinr = _sinrs(sd=1.0, ds=1.0, sr=3.0, rd=3.0, dr=3.0, rs=3.0)
        # each direction: (1/4)*log2(1 + 1 + 9/7); quarter-slot version of
        # the one-way AF capacity
        assert _rate(StrategyKind.UNI_AF_EXCHANGE, sinr) == pytest.approx(
            0.5 * math.log2(23 / 7))

    def test_uni_df_exchange_uses_min(self):
        sinr = _sinrs(sd=1.0, ds=1.0, sr=15.0, rd=2.0, dr=15.0, rs=2.0)
        assert _rate(StrategyKind.UNI_DF_EXCHANGE, sinr) == pytest.approx(
            2 * 0.25 * math.log2(4.0))

    def test_per_direction_sums(self):
        sinr = _sinrs(sd=2.0, ds=1.0, sr=5.0, rd=4.0, dr=3.0, rs=6.0)
        for kind, one_way, columns in _EXCHANGES:
            forward, reverse = rate_exchange(one_way, *sinr[list(columns)])
            assert _rate(kind, sinr) == pytest.approx(forward + reverse)


class TestEvaluateStrategy:
    def test_checks_the_columns_its_kinds_read(self):
        # checked once at the boundary, over the union of the kinds'
        # columns: DR1 is read by two-way AF alone, SR2 by neither kind
        kinds = (StrategyKind.DIRECT, StrategyKind.TWOWAY_AF)
        clean = np.stack([_sinrs(sd=2.0, sr=5.0, dr=3.0), _sinrs(sd=1.0)])
        bad = clean.copy()
        bad[1, DR1] = np.nan
        with pytest.raises(ValueError,
                           match="^SNR must be non-negative, got nan$"):
            strategy_rates(bad, kinds)
        unread = clean.copy()
        unread[0, SR2] = np.nan
        np.testing.assert_array_equal(strategy_rates(unread, kinds),
                                      strategy_rates(clean, kinds))

    def test_every_kind_evaluates(self):
        sinr = _sinrs(sd=2.0, ds=1.5, sr=5.0, rd=4.0, dr=3.0, rs=6.0,
                      sr2=2.0, r2d=3.0)
        rates = strategy_rates(sinr, ALL_STRATEGIES)
        assert rates.shape == (len(ALL_STRATEGIES),)
        assert np.all(rates >= 0.0)
        # a block of trials gives each trial's rates
        block = np.stack([sinr, 2.0 * sinr, np.zeros(8)])
        table = strategy_rates(block, ALL_STRATEGIES)
        for row, trial in zip(table, block):
            np.testing.assert_array_equal(
                row, strategy_rates(trial, ALL_STRATEGIES))

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            rate_af_single(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_af_single(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            rate_af_beamform2(1.0, 1.0, 1.0, 1.0, np.nan)
        with pytest.raises(ValueError):
            rate_df_beamform2(1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_twoway_df(-1.0, 1.0)
        with pytest.raises(ValueError, match="nan"):
            rate_direct(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            strategy_rates(np.stack([_sinrs(), _sinrs(sd=-1.0)]),
                           (StrategyKind.DIRECT,))

import gc
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

import relaysim
from relaysim import montecarlo, strategies
from relaysim.propagation import (
    DR1, DS, R1D, R1S, R2D, SD, SR1, SR2, link_sinrs)
from relaysim.scenario import ScenarioConfig, draw_block
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
                                            (3.0, 2.0), (0, 0.0), (3, 2.0)])
    def test_values(self, g, expected):
        assert rate_direct(g) == pytest.approx(expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_direct(-0.1)
        with pytest.raises(ValueError, match="^SNR must be non-negative, "
                                             "got -2$"):
            rate_direct(np.array([1, -2]))


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

    @pytest.mark.parametrize("kinds", ["direct", ("direct",), (), [1]],
                             ids=["name", "names", "empty", "int"])
    def test_rejects_bad_kinds(self, kinds):
        with pytest.raises(ValueError, match="^kinds must be a non-empty "
                                             "sequence of StrategyKinds$"):
            strategy_rates(np.ones((3, 8)), kinds)

    def test_one_shot_iterable_of_kinds(self):
        sinr = np.stack([_sinrs(sd=2.0), _sinrs(sd=5.0)])
        np.testing.assert_array_equal(
            strategy_rates(sinr, (k for k in [StrategyKind.DIRECT])),
            strategy_rates(sinr, (StrategyKind.DIRECT,)))

    def test_repeated_kind_gives_a_column_per_entry(self):
        sinr = np.stack([_sinrs(sd=2.0), _sinrs(sd=5.0)])
        rates = strategy_rates(sinr, (StrategyKind.DIRECT,) * 2)
        assert rates.shape == (2, 2)
        np.testing.assert_array_equal(rates[:, 0], rates[:, 1])
        np.testing.assert_array_equal(
            rates[:, 0], strategy_rates(sinr, (StrategyKind.DIRECT,))[:, 0])

    def test_exported_formulas_carry_their_names(self):
        names = [name for name in relaysim.__all__
                 if name.startswith("rate_") or name == "af_equivalent_snr"]
        assert len(names) == 9
        for name in names:
            assert getattr(relaysim, name).__name__ == name


# Each kind's public formula and the link_sinrs columns of its arguments
_PUBLIC = {
    StrategyKind.DIRECT: (rate_direct, (SD,)),
    StrategyKind.AF_SINGLE: (rate_af_single, (SD, SR1, R1D)),
    StrategyKind.DF_SINGLE: (rate_df_single, (SD, SR1, R1D)),
    StrategyKind.AF_BEAMFORM2: (rate_af_beamform2, (SD, SR1, R1D, SR2, R2D)),
    StrategyKind.DF_BEAMFORM2: (rate_df_beamform2, (SD, SR1, R1D, SR2, R2D)),
    StrategyKind.TWOWAY_AF: (rate_twoway_af, (SR1, DR1)),
    StrategyKind.TWOWAY_DF: (rate_twoway_df, (SR1, DR1)),
    **{kind: (partial(rate_exchange, one_way), columns)
       for kind, one_way, columns in _EXCHANGES},
}


def _per_kind(sinr, kinds):
    """Each kind's public formula run on its own columns, the rates of two
    directions summed, stacked on the last axis."""
    rates = []
    for kind in kinds:
        formula, columns = _PUBLIC[kind]
        rate = formula(*(sinr[..., c] for c in columns))
        rates.append(rate[0] + rate[1] if isinstance(rate, tuple) else rate)
    return np.stack(rates, axis=-1)


class TestSharedRates:
    """strategy_rates runs each formula body once, a one-way body on both
    directions, and writes the rates into one array, yet equals the public
    formulas run per kind bit for bit."""

    KINDS = {
        "all": ALL_STRATEGIES,
        "subset": (StrategyKind.UNI_DF_EXCHANGE, StrategyKind.DIRECT,
                   StrategyKind.TWOWAY_AF),
        "permuted": ALL_STRATEGIES[1::2] + ALL_STRATEGIES[::2],
        "repeated": (StrategyKind.DIRECT_EXCHANGE, StrategyKind.DIRECT,
                     StrategyKind.TWOWAY_DF, StrategyKind.DIRECT,
                     StrategyKind.UNI_AF_EXCHANGE,
                     StrategyKind.DIRECT_EXCHANGE, StrategyKind.TWOWAY_DF),
    }

    @staticmethod
    def _sinr(shape):
        # SINRs over 12 decades, with dead links and the ties that decide
        # the decoding order of two-way DF
        rng = np.random.default_rng(len(shape))
        sinr = 10.0 ** rng.uniform(-4.0, 8.0, shape + (8,))
        sinr[rng.random(shape + (8,)) < 0.1] = 0.0
        tie = rng.random(shape) < 0.2
        sinr[..., DR1] = np.where(tie, sinr[..., SR1], sinr[..., DR1])
        return sinr

    @pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS)
    @pytest.mark.parametrize("shape", [(), (64,), (3, 41)],
                             ids=["1d", "2d", "3d"])
    def test_matches_per_kind_bodies(self, kinds, shape):
        sinr = self._sinr(shape)
        want = _per_kind(sinr, kinds)
        got = strategy_rates(sinr, kinds)
        assert got.shape == want.shape == shape + (len(kinds),)
        assert got.tobytes() == want.tobytes()
        if not shape:
            return
        # out as _item_tables passes it: a transposed view of some rows of
        # a larger (..., kinds, rows) table, whose other rows stay untouched
        rows = shape[-1]
        table = np.full(shape[:-1] + (len(kinds), rows + 7), np.nan)
        out = table[..., 3:3 + rows].swapaxes(-1, -2)
        assert strategy_rates(sinr, kinds, out) is out
        assert out.tobytes() == want.tobytes()
        assert np.isnan(table[..., :3]).all() and \
            np.isnan(table[..., 3 + rows:]).all()

    def test_frees_its_results_on_return(self):
        # no reference cycle keeps a call's intermediate rates alive until
        # the cyclic collector runs: that raised a sweep's memory peak
        gc.collect()
        gc.disable()
        try:
            strategy_rates(self._sinr((64,)), ALL_STRATEGIES)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("sinr_shape, out_shape", [
        ((8,), ()), ((8,), (1,)), ((8,), (3,)), ((5, 8), (2, 5)),
        ((5, 8), (5, 3)), ((5, 8), (5,)), ((4, 5, 8), (4, 2, 5)),
        ((4, 5, 8), (5, 2)), ((4, 5, 8), (5, 4, 2))])
    def test_rejects_a_misshapen_out(self, sinr_shape, out_shape):
        kinds = (StrategyKind.DIRECT, StrategyKind.TWOWAY_DF)
        with pytest.raises(ValueError, match=r"^out must be a float64 array "
                                             r"of shape \(.*\)$"):
            strategy_rates(np.ones(sinr_shape), kinds, np.empty(out_shape))
        # the result's own shape is taken, also for a single trial
        out = np.empty(sinr_shape[:-1] + (len(kinds),))
        assert strategy_rates(np.ones(sinr_shape), kinds, out) is out
        assert out.tobytes() == \
            strategy_rates(np.ones(sinr_shape), kinds).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex128])
    @pytest.mark.parametrize("kind", ALL_STRATEGIES)
    def test_rejects_an_out_not_float64(self, kind, dtype):
        # an int64 out would truncate log2(3) = 1.585 to 1, a float32 one
        # round the rates; one trial and one kind give an out of the
        # right shape in any layout
        out = np.zeros((1, 1), dtype)
        with pytest.raises(ValueError, match=r"^out must be a float64 array "
                                             r"of shape \(1, 1\)$"):
            strategy_rates(np.full((1, 8), 2.0), (kind,), out)
        assert not out.any()

    @pytest.mark.parametrize("shape", [(7,), (5, 7), (9,), (5, 9), (),
                                       (2, 5, 0)])
    def test_rejects_a_link_axis_without_8_columns(self, shape):
        with pytest.raises(ValueError, match="^sinr's last axis must hold "
                                             "the 8 link columns SD, DS, "):
            strategy_rates(np.ones(shape), ALL_STRATEGIES)

    @pytest.mark.parametrize("trials, points", [(1024, 1), (50, 20)])
    def test_temporaries_per_row(self, trials, points):
        # about ROWS trial-points as _item_tables passes them: link_sinrs'
        # SINRs and a transposed view of a (points, kinds, trials) table.
        # Each body's rates are freed before the next body runs, so a
        # call's peak stays near the size of the table it fills. This is
        # also the test that fails if link_sinrs' result stops being
        # link-major in memory: strategy_rates would then copy the SINRs.
        cfg = ScenarioConfig(seed=36, interferer_min=0, interferer_max=6)
        sinr = link_sinrs(draw_block(cfg, 0, trials), cfg,
                          np.linspace(10.0, 100.0, points))
        out = np.empty((points, len(ALL_STRATEGIES), trials)).swapaxes(1, 2)
        strategy_rates(sinr, ALL_STRATEGIES, out)
        tracemalloc.start()
        try:
            strategy_rates(sinr, ALL_STRATEGIES, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes, peak / out.nbytes

    @pytest.mark.parametrize("shape", [(0, 8), (3, 0, 8)])
    def test_zero_rows_give_an_empty_table(self, shape):
        sinr = np.zeros(shape)
        kinds = len(ALL_STRATEGIES)
        assert strategy_rates(sinr, ALL_STRATEGIES).shape == \
            shape[:-1] + (kinds,)
        out = np.empty(shape[:-2] + (kinds, 0)).swapaxes(-1, -2)
        assert strategy_rates(sinr, ALL_STRATEGIES, out) is out
        with pytest.raises(ValueError,
                           match="^SNR must be non-negative, got nan$"):
            strategy_rates(np.full((1, 8), np.nan), ALL_STRATEGIES)

    PUBLIC = pytest.mark.parametrize("formula, arity", [
        (rate_direct, 1), (af_equivalent_snr, 2), (rate_af_single, 3),
        (rate_df_single, 3), (rate_af_beamform2, 5), (rate_df_beamform2, 5),
        (twoway_af_snrs, 2), (rate_twoway_af, 2), (rate_twoway_df, 2)])

    @PUBLIC
    def test_public_formulas_take_empty_arrays(self, formula, arity):
        result = formula(*[np.empty(0)] * arity)
        for rates in result if isinstance(result, tuple) else (result,):
            assert rates.shape == (0,)
        with pytest.raises(ValueError, match="got nan"):
            formula(*[np.array([np.nan])] * arity)

    @PUBLIC
    def test_public_formulas_take_integers(self, formula, arity):
        # integer SNRs are checked and evaluated as the equal floats
        snrs = [(1, 2, 3, 4, 5)[:arity], [np.array([0, 7])] * arity]
        for ints in snrs:
            floats = [np.asarray(g, dtype=float) for g in ints]
            assert np.array_equal(formula(*ints), formula(*floats))
        with pytest.raises(ValueError, match="^SNR must be non-negative, "
                                             "got -1$"):
            formula(*[np.array([2, -1])] * arity)


class _Scanned(tuple):
    """_BODIES that counts the scans made of it."""

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestPlan:
    """strategy_rates builds its plan of bodies and writes once per kinds
    tuple, and takes the slots it writes from each call's out."""

    KINDS = TestSharedRates.KINDS

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        strategies._plan.cache_clear()
        yield
        strategies._plan.cache_clear()

    def test_a_sweep_builds_one_plan(self, monkeypatch):
        bodies = _Scanned(strategies._BODIES)
        bodies.scans = 0
        monkeypatch.setattr(strategies, "_BODIES", bodies)
        calls = []

        def rating(sinr, kinds, out):
            calls.append(kinds)
            return strategy_rates(sinr, kinds, out)

        monkeypatch.setattr(montecarlo, "strategy_rates", rating)
        # 4 distances per call at ROWS // 4 trials: 3 groups, 3 calls
        montecarlo.run_sweep(ScenarioConfig(seed=52), tuple(range(10, 21)),
                             montecarlo.ROWS // 4)
        assert len(calls) == 3
        assert bodies.scans == 1

    def test_each_kinds_tuple_has_its_own_plan(self):
        # the reordered, subset and repeated kinds each get a plan that
        # writes every one of their columns, with the per-kind bytes, on
        # the call that builds the plan and on a call that reuses it
        sinr = TestSharedRates._sinr((64,))
        for kinds in self.KINDS.values():
            built = strategy_rates(sinr, kinds)
            reused = strategy_rates(sinr, kinds)
            writes = [i for _, _, plan_writes in strategies._plan(kinds)[0]
                      for i, _ in plan_writes]
            assert sorted(writes) == list(range(len(kinds)))
            assert built.tobytes() == reused.tobytes() == \
                _per_kind(sinr, kinds).tobytes()
        info = strategies._plan.cache_info()
        assert (info.misses, info.currsize) == (len(self.KINDS),) * 2

    def test_calls_sharing_a_plan_write_only_their_own_out(self):
        kinds = self.KINDS["repeated"]
        # two outs of one shape and layout, for different SINRs
        first = TestSharedRates._sinr((64,))
        second = 2.0 * first + 1.0
        table = np.full((len(kinds), 64), np.nan)
        out = table.T
        strategy_rates(first, kinds, out)
        written = table.tobytes()
        other = np.full((len(kinds), 64), np.nan).T
        assert strategy_rates(second, kinds, other) is other
        assert strategies._plan.cache_info().misses == 1
        assert table.tobytes() == written
        assert out.tobytes() == _per_kind(first, kinds).tobytes()
        assert other.tobytes() == _per_kind(second, kinds).tobytes()

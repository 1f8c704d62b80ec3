"""Spectral efficiency of each transmission strategy.

All relayed strategies are half-duplex: one-way relaying spends two time
slots (1/2 prelog), unidirectional information exchange through a relay
spends four (1/4 prelog), bidirectional relaying exchanges in two. The
destination maximal-ratio combines direct and relayed copies, so SNRs add.

Every rate formula takes SNRs as floats or as equally shaped arrays.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial, wraps

import numpy as np

from .propagation import DR1, DS, R1D, R1S, R2D, SD, SR1, SR2


class StrategyKind(Enum):
    DIRECT = "direct"
    AF_SINGLE = "af_single"
    DF_SINGLE = "df_single"
    AF_BEAMFORM2 = "af_beamform2"
    DF_BEAMFORM2 = "df_beamform2"
    TWOWAY_AF = "twoway_af"
    TWOWAY_DF = "twoway_df"
    DIRECT_EXCHANGE = "direct_exchange"
    UNI_AF_EXCHANGE = "uni_af_exchange"
    UNI_DF_EXCHANGE = "uni_df_exchange"


ALL_STRATEGIES = tuple(StrategyKind)


_LN2 = math.log(2.0)


def _check_nonneg(*snrs) -> None:
    for g in snrs:
        if not np.min(g) >= 0:  # a NaN minimum fails too
            raise ValueError(f"SNR must be non-negative, got {np.min(g)}")


def _checked(body):
    """The public form of a formula body: it rejects negative and NaN SNRs
    among its arguments, then runs the body. strategy_rates checks its
    input once and runs the bodies themselves."""
    @wraps(body)
    def formula(*snrs):
        _check_nonneg(*snrs)
        return body(*snrs)
    formula.__name__ = formula.__qualname__ = body.__name__.lstrip("_")
    return formula


def _lg(snr):
    # np.log for log2: see the note on numpy routines in propagation.py.
    return np.log(1.0 + snr) / _LN2


def _rate_direct(snr_sd):
    """Full-slot point-to-point rate log2(1 + SNR)."""
    return _lg(snr_sd)


def _af_equivalent_snr(g1, g2):
    """End-to-end SNR of a variable-gain AF hop with noise amplification:
    g1*g2 / (g1 + g2 + 1), zero when either hop is dead."""
    return g1 * g2 / (g1 + g2 + 1.0)


def _rate_af_single(snr_sd, snr_sr, snr_rd):
    """Single-relay AF with MRC of direct and relayed copies."""
    return 0.5 * _lg(snr_sd + _af_equivalent_snr(snr_sr, snr_rd))


def _rate_df_single(snr_sd, snr_sr, snr_rd):
    """Single-relay repetition-coded DF: decode constraint at the relay,
    MRC at the destination."""
    return 0.5 * np.minimum(_lg(snr_sr), _lg(snr_sd + snr_rd))


def _rate_af_beamform2(snr_sd, snr_sr1, snr_r1d, snr_sr2, snr_r2d):
    """Two-relay AF with collaborative beamforming: the co-phased relay
    paths add in amplitude at the destination."""
    amplitude = (np.sqrt(_af_equivalent_snr(snr_sr1, snr_r1d))
                 + np.sqrt(_af_equivalent_snr(snr_sr2, snr_r2d)))
    return 0.5 * _lg(snr_sd + amplitude * amplitude)


def _rate_df_beamform2(snr_sd, snr_sr1, snr_r1d, snr_sr2, snr_r2d):
    """Two-relay DF with collaborative beamforming: both relays must decode
    (the weaker source->relay link binds), coherent retransmission adds in
    amplitude at the destination."""
    amplitude = np.sqrt(snr_r1d) + np.sqrt(snr_r2d)
    return 0.5 * np.minimum(np.minimum(_lg(snr_sr1), _lg(snr_sr2)),
                            _lg(snr_sd + amplitude * amplitude))


def _twoway_af_snrs(g_a, g_b):
    """Post-cancellation SNRs at end nodes A and B for two-way AF.

    The relay normalizes its transmit power over the superposed reception
    and both end nodes subtract their own contribution perfectly, leaving
    snr_at_A = g_a*g_b/(2*g_a + g_b + 1) and symmetrically for B, both
    zero when either link is dead. Channels are reciprocal within the
    trial.
    """
    prod = g_a * g_b
    return (prod / (2.0 * g_a + g_b + 1.0),
            prod / (g_a + 2.0 * g_b + 1.0))


def _rate_twoway_af(g_a, g_b):
    """Two-slot bidirectional AF; the direct link is unused (half duplex).
    Returns the rates (A->B, B->A)."""
    snr_a, snr_b = _twoway_af_snrs(g_a, g_b)
    return 0.5 * _lg(snr_b), 0.5 * _lg(snr_a)


def _rate_twoway_df(g_a, g_b):
    """Two-slot bidirectional DF with successive decoding at the relay.
    Returns the rates (A->B, B->A).

    MAC slot: the stronger stream (tie -> A first) is decoded treating the
    other as interference, then the weaker interference-free. Broadcast
    slot: network-coded retransmission, each destination additionally
    limited by its own downlink.
    """
    a_first = g_a >= g_b
    r_a_mac = np.where(a_first, _lg(g_a / (1.0 + g_b)), _lg(g_a))
    r_b_mac = np.where(a_first, _lg(g_b), _lg(g_b / (1.0 + g_a)))
    return (0.5 * np.minimum(r_a_mac, _lg(g_b)),
            0.5 * np.minimum(r_b_mac, _lg(g_a)))


rate_direct = _checked(_rate_direct)
af_equivalent_snr = _checked(_af_equivalent_snr)
rate_af_single = _checked(_rate_af_single)
rate_df_single = _checked(_rate_df_single)
rate_af_beamform2 = _checked(_rate_af_beamform2)
rate_df_beamform2 = _checked(_rate_df_beamform2)
twoway_af_snrs = _checked(_twoway_af_snrs)
rate_twoway_af = _checked(_rate_twoway_af)
rate_twoway_df = _checked(_rate_twoway_df)


def rate_exchange(one_way, *snrs):
    """Unidirectional information exchange: the one-way strategy in each
    direction, each in half the slots of the exchange (two slots for the
    direct exchange, four through a relay). The first half of `snrs` are
    one_way's arguments forward, the second half in reverse. Returns the
    rates (forward, reverse)."""
    half = len(snrs) // 2
    return 0.5 * one_way(*snrs[:half]), 0.5 * one_way(*snrs[half:])


# Each strategy's formula body and the link_sinrs columns of its
# arguments. The two-way strategies use end node A = S, end node B = D and
# relay R1; their node-relay SINRs take interference as seen at the relay
# (the receiver of the multiple-access slot).
_FORMULAS = {
    StrategyKind.DIRECT: (_rate_direct, (SD,)),
    StrategyKind.AF_SINGLE: (_rate_af_single, (SD, SR1, R1D)),
    StrategyKind.DF_SINGLE: (_rate_df_single, (SD, SR1, R1D)),
    StrategyKind.AF_BEAMFORM2: (_rate_af_beamform2,
                                (SD, SR1, R1D, SR2, R2D)),
    StrategyKind.DF_BEAMFORM2: (_rate_df_beamform2,
                                (SD, SR1, R1D, SR2, R2D)),
    StrategyKind.TWOWAY_AF: (_rate_twoway_af, (SR1, DR1)),
    StrategyKind.TWOWAY_DF: (_rate_twoway_df, (SR1, DR1)),
    StrategyKind.DIRECT_EXCHANGE: (partial(rate_exchange, _rate_direct),
                                   (SD, DS)),
    StrategyKind.UNI_AF_EXCHANGE: (partial(rate_exchange, _rate_af_single),
                                   (SD, SR1, R1D, DS, DR1, R1S)),
    StrategyKind.UNI_DF_EXCHANGE: (partial(rate_exchange, _rate_df_single),
                                   (SD, SR1, R1D, DS, DR1, R1S)),
}


def strategy_rates(sinr, kinds) -> np.ndarray:
    """Spectral efficiency in bits/s/Hz of each strategy in `kinds`.

    sinr holds the directed payload SINRs on its last axis, in link_sinrs
    column order; the result has one entry per kind on its last axis.
    A formula that returns the rates of two directions reports their sum.
    The columns the kinds read are checked once, as the public rate_*
    functions check their arguments; the formula bodies run unchecked.
    """
    _check_nonneg(sinr[..., sorted({c for kind in kinds
                                    for c in _FORMULAS[kind][1]})])
    rates = []
    for kind in kinds:
        formula, columns = _FORMULAS[kind]
        rate = formula(*(sinr[..., c] for c in columns))
        rates.append(rate[0] + rate[1] if isinstance(rate, tuple) else rate)
    return np.stack(rates, axis=-1)

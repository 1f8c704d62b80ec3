"""Spectral efficiency of each transmission strategy.

All relayed strategies are half-duplex: one-way relaying spends two time
slots (1/2 prelog), unidirectional information exchange through a relay
spends four (1/4 prelog), bidirectional relaying exchanges in two. The
destination maximal-ratio combines direct and relayed copies, so SNRs add.

Every rate formula takes SNRs as numbers or as equally shaped arrays.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache, wraps

import numpy as np

from .propagation import DR1, DS, LINKS, R1D, R1S, R2D, SD, SR1, SR2


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
        if np.size(g) and not np.min(g) >= 0:  # a NaN minimum fails
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
    # np.log for log2: each further numpy math routine a run calls
    # (np.log2, np.log10, ...) pages in about 64 KiB more of numpy's code,
    # which shows in the peak memory of a run.
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
    lg_a, lg_b = _lg(g_a), _lg(g_b)
    r_a_mac = np.where(a_first, _lg(g_a / (1.0 + g_b)), lg_a)
    r_b_mac = np.where(a_first, lg_b, _lg(g_b / (1.0 + g_a)))
    return (0.5 * np.minimum(r_a_mac, lg_b),
            0.5 * np.minimum(r_b_mac, lg_a))


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


# Each formula body, the link_sinrs columns of its arguments, and the kinds
# it serves with the weight of each direction's rate. A one-way body runs
# on (forward, reverse) column pairs: its strategy reads the forward rate
# (weight None), its exchange half of each, as rate_exchange gives them. A
# two-way strategy sums the rates (A->B, B->A) of its body on end node A =
# S, end node B = D and relay R1, whose node-relay SINRs take interference
# as seen at the relay (the receiver of the multiple-access slot).
_ONE_WAY = (slice(SD, DS + 1), slice(SR1, DR1 + 1, 2), slice(R1D, R1S + 1, 2))
_BEAMFORM = tuple(slice(c, c + 1) for c in (SD, SR1, R1D, SR2, R2D))
_BODIES = (
    (_rate_direct, _ONE_WAY[:1],
     ((StrategyKind.DIRECT, None), (StrategyKind.DIRECT_EXCHANGE, 0.5))),
    (_rate_af_single, _ONE_WAY,
     ((StrategyKind.AF_SINGLE, None), (StrategyKind.UNI_AF_EXCHANGE, 0.5))),
    (_rate_df_single, _ONE_WAY,
     ((StrategyKind.DF_SINGLE, None), (StrategyKind.UNI_DF_EXCHANGE, 0.5))),
    (_rate_af_beamform2, _BEAMFORM, ((StrategyKind.AF_BEAMFORM2, None),)),
    (_rate_df_beamform2, _BEAMFORM, ((StrategyKind.DF_BEAMFORM2, None),)),
    (_rate_twoway_af, (SR1, DR1), ((StrategyKind.TWOWAY_AF, 1.0),)),
    (_rate_twoway_df, (SR1, DR1), ((StrategyKind.TWOWAY_DF, 1.0),)),
)


@lru_cache(maxsize=64)
def _plan(kinds):
    """strategy_rates' plan for `kinds`: each body that serves them, its
    columns and its (kind index, weight) writes, and the index of the
    columns read, `...` when all are, so that the check copies nothing."""
    bodies, read = [], np.zeros(len(LINKS), bool)
    for body, columns, serves in _BODIES:
        writes = tuple((i, weight) for i, kind in enumerate(kinds)
                       for served, weight in serves if kind is served)
        if writes:
            bodies.append((body, columns, writes))
            read[np.r_[columns]] = True
    read.flags.writeable = False  # one mask serves every call
    return tuple(bodies), ... if read.all() else read


def strategy_rates(sinr, kinds, out=None) -> np.ndarray:
    """Spectral efficiency in bits/s/Hz of each strategy in `kinds`, a
    non-empty iterable of StrategyKinds.

    sinr holds the 8 directed payload SINRs on its last axis, in link_sinrs
    column order; the result, of shape sinr.shape[:-1] + (len(kinds),), has
    the i-th kind's rates in [..., i]. Given `out`, a float64 array of that
    shape with any strides, such as a transposed view of a larger table,
    the rates are written into it, and out is returned.

    Each formula body that serves one of the kinds runs once, on sinr made
    link-major (a view of link_sinrs' result, a copy of other input), and
    writes all its kinds before the next body runs; a repeated kind gives
    equal columns. The columns those bodies read are checked once, as the
    public rate_* functions check their arguments. The plan of bodies and
    writes is built once per kinds tuple, the slots from each call's out.
    """
    kinds = tuple(kinds)
    if not kinds or not all(isinstance(kind, StrategyKind) for kind in kinds):
        raise ValueError("kinds must be a non-empty sequence of StrategyKinds")
    if sinr.shape[-1:] != (len(LINKS),):
        raise ValueError("sinr's last axis must hold the 8 link columns SD, "
                         "DS, SR1, R1D, DR1, R1S, SR2, R2D")
    shape = sinr.shape[:-1] + (len(kinds),)
    if out is None:
        out = np.empty(shape)
    elif (out.dtype, out.shape) != (np.float64, shape):
        raise ValueError(f"out must be a float64 array of shape {shape}")
    bodies, read = _plan(kinds)
    slots = out.transpose(-1, *range(out.ndim - 1))
    links = np.ascontiguousarray(sinr.transpose(-1, *range(sinr.ndim - 1)))
    _check_nonneg(links[read])
    for body, columns, writes in bodies:
        directions = body(*(links[column] for column in columns))
        for i, weight in writes:
            slot = slots[i, ...]  # a view, also when it is 0-d
            if weight is None:
                slot[...] = directions[0]
            else:
                np.add(weight * directions[0], weight * directions[1],
                       out=slot)
        del directions  # freed before the next body runs
    return out

"""Spectral efficiency of each transmission strategy.

All relayed strategies are half-duplex: one-way relaying spends two time
slots (1/2 prelog), unidirectional information exchange through a relay
spends four (1/4 prelog), bidirectional relaying exchanges in two. The
destination maximal-ratio combines direct and relayed copies, so SNRs add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .propagation import LinkSet


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

    @property
    def is_exchange(self) -> bool:
        return self in (StrategyKind.TWOWAY_AF, StrategyKind.TWOWAY_DF,
                        StrategyKind.DIRECT_EXCHANGE,
                        StrategyKind.UNI_AF_EXCHANGE,
                        StrategyKind.UNI_DF_EXCHANGE)


ALL_STRATEGIES = tuple(StrategyKind)


@dataclass(frozen=True)
class RateResult:
    strategy: StrategyKind
    spectral_efficiency: float  # bits/s/Hz
    per_direction: Optional[tuple[float, float]] = None


def _check_nonneg(*snrs: float) -> None:
    for g in snrs:
        if g < 0 or math.isnan(g):
            raise ValueError(f"SNR must be non-negative, got {g}")


def _lg(snr: float) -> float:
    return math.log2(1.0 + snr)


def rate_direct(snr_sd: float) -> float:
    """Full-slot point-to-point rate log2(1 + SNR)."""
    _check_nonneg(snr_sd)
    return _lg(snr_sd)


def af_equivalent_snr(g1: float, g2: float) -> float:
    """End-to-end SNR of a variable-gain AF hop with noise amplification:
    g1*g2 / (g1 + g2 + 1)."""
    _check_nonneg(g1, g2)
    if g1 == 0.0 or g2 == 0.0:
        return 0.0
    return g1 * g2 / (g1 + g2 + 1.0)


def rate_af_single(snr_sd: float, snr_sr: float, snr_rd: float) -> float:
    """Single-relay AF with MRC of direct and relayed copies."""
    _check_nonneg(snr_sd, snr_sr, snr_rd)
    return 0.5 * _lg(snr_sd + af_equivalent_snr(snr_sr, snr_rd))


def rate_df_single(snr_sd: float, snr_sr: float, snr_rd: float) -> float:
    """Single-relay repetition-coded DF: decode constraint at the relay,
    MRC at the destination."""
    _check_nonneg(snr_sd, snr_sr, snr_rd)
    return 0.5 * min(_lg(snr_sr), _lg(snr_sd + snr_rd))


def rate_af_beamform2(snr_sd: float, snr_sr1: float, snr_r1d: float,
                      snr_sr2: float, snr_r2d: float) -> float:
    """Two-relay AF with collaborative beamforming: the co-phased relay
    paths add in amplitude at the destination."""
    _check_nonneg(snr_sd, snr_sr1, snr_r1d, snr_sr2, snr_r2d)
    g1 = af_equivalent_snr(snr_sr1, snr_r1d)
    g2 = af_equivalent_snr(snr_sr2, snr_r2d)
    combined = (math.sqrt(g1) + math.sqrt(g2)) ** 2
    return 0.5 * _lg(snr_sd + combined)


def rate_df_beamform2(snr_sd: float, snr_sr1: float, snr_r1d: float,
                      snr_sr2: float, snr_r2d: float) -> float:
    """Two-relay DF with collaborative beamforming: both relays must decode
    (the weaker source->relay link binds), coherent retransmission adds in
    amplitude at the destination."""
    _check_nonneg(snr_sd, snr_sr1, snr_r1d, snr_sr2, snr_r2d)
    combined = (math.sqrt(snr_r1d) + math.sqrt(snr_r2d)) ** 2
    return 0.5 * min(_lg(snr_sr1), _lg(snr_sr2), _lg(snr_sd + combined))


def twoway_af_snrs(g_a: float, g_b: float) -> tuple[float, float]:
    """Post-cancellation SNRs at end nodes A and B for two-way AF.

    The relay normalizes its transmit power over the superposed reception
    and both end nodes subtract their own contribution perfectly, leaving
    snr_at_A = g_a*g_b/(2*g_a + g_b + 1) and symmetrically for B.
    Channels are reciprocal within the trial.
    """
    _check_nonneg(g_a, g_b)
    if g_a == 0.0 or g_b == 0.0:
        return (0.0, 0.0)
    prod = g_a * g_b
    return (prod / (2.0 * g_a + g_b + 1.0),
            prod / (g_a + 2.0 * g_b + 1.0))


def rate_twoway_af(g_a: float, g_b: float) -> RateResult:
    """Two-slot bidirectional AF; the direct link is unused (half duplex)."""
    snr_a, snr_b = twoway_af_snrs(g_a, g_b)
    a_to_b = 0.5 * _lg(snr_b)
    b_to_a = 0.5 * _lg(snr_a)
    return RateResult(StrategyKind.TWOWAY_AF, a_to_b + b_to_a,
                      (a_to_b, b_to_a))


def rate_twoway_df(g_a: float, g_b: float) -> RateResult:
    """Two-slot bidirectional DF with successive decoding at the relay.

    MAC slot: the stronger stream (tie -> A first) is decoded treating the
    other as interference, then the weaker interference-free. Broadcast
    slot: network-coded retransmission, each destination additionally
    limited by its own downlink.
    """
    _check_nonneg(g_a, g_b)
    if g_a >= g_b:
        r_a_mac = _lg(g_a / (1.0 + g_b))
        r_b_mac = _lg(g_b)
    else:
        r_a_mac = _lg(g_a)
        r_b_mac = _lg(g_b / (1.0 + g_a))
    a_to_b = 0.5 * min(r_a_mac, _lg(g_b))
    b_to_a = 0.5 * min(r_b_mac, _lg(g_a))
    return RateResult(StrategyKind.TWOWAY_DF, a_to_b + b_to_a,
                      (a_to_b, b_to_a))


def rate_exchange_baseline(kind: StrategyKind, links: LinkSet) -> RateResult:
    """Unidirectional information-exchange baselines.

    DirectExchange uses two half-duplex slots; the relayed exchanges run
    the one-way combined-SNR capacity in each direction through the same
    relay at a 1/4 slot factor (four slots total).
    """
    if kind == StrategyKind.DIRECT_EXCHANGE:
        fwd = 0.5 * _lg(links.sinr("S", "D"))
        rev = 0.5 * _lg(links.sinr("D", "S"))
    elif kind == StrategyKind.UNI_AF_EXCHANGE:
        fwd = 0.25 * _lg(links.sinr("S", "D")
                         + af_equivalent_snr(links.sinr("S", "R1"),
                                             links.sinr("R1", "D")))
        rev = 0.25 * _lg(links.sinr("D", "S")
                         + af_equivalent_snr(links.sinr("D", "R1"),
                                             links.sinr("R1", "S")))
    elif kind == StrategyKind.UNI_DF_EXCHANGE:
        fwd = 0.25 * min(_lg(links.sinr("S", "R1")),
                         _lg(links.sinr("S", "D") + links.sinr("R1", "D")))
        rev = 0.25 * min(_lg(links.sinr("D", "R1")),
                         _lg(links.sinr("D", "S") + links.sinr("R1", "S")))
    else:
        raise ValueError(f"{kind} is not an exchange baseline")
    return RateResult(kind, fwd + rev, (fwd, rev))


def evaluate_strategy(kind: StrategyKind, links: LinkSet) -> RateResult:
    """Evaluate one strategy on a trial's link set.

    Two-way strategies use end node A = S, end node B = D and relay R1;
    their node-relay SINRs take interference as seen at the relay (the
    receiver of the multiple-access slot).
    """
    if kind == StrategyKind.DIRECT:
        return RateResult(kind, rate_direct(links.sinr("S", "D")))
    if kind == StrategyKind.AF_SINGLE:
        return RateResult(kind, rate_af_single(links.sinr("S", "D"),
                                               links.sinr("S", "R1"),
                                               links.sinr("R1", "D")))
    if kind == StrategyKind.DF_SINGLE:
        return RateResult(kind, rate_df_single(links.sinr("S", "D"),
                                               links.sinr("S", "R1"),
                                               links.sinr("R1", "D")))
    if kind == StrategyKind.AF_BEAMFORM2:
        return RateResult(kind, rate_af_beamform2(links.sinr("S", "D"),
                                                  links.sinr("S", "R1"),
                                                  links.sinr("R1", "D"),
                                                  links.sinr("S", "R2"),
                                                  links.sinr("R2", "D")))
    if kind == StrategyKind.DF_BEAMFORM2:
        return RateResult(kind, rate_df_beamform2(links.sinr("S", "D"),
                                                  links.sinr("S", "R1"),
                                                  links.sinr("R1", "D"),
                                                  links.sinr("S", "R2"),
                                                  links.sinr("R2", "D")))
    if kind == StrategyKind.TWOWAY_AF:
        return rate_twoway_af(links.sinr("S", "R1"), links.sinr("D", "R1"))
    if kind == StrategyKind.TWOWAY_DF:
        return rate_twoway_df(links.sinr("S", "R1"), links.sinr("D", "R1"))
    return rate_exchange_baseline(kind, links)

"""Per-link SINRs of a block of trials at one or several distances:
placement of the block's position variates, ITU indoor path loss in
linear form, Rayleigh fading and interference aggregation."""

from __future__ import annotations

import numpy as np

from .scenario import D, PAYLOAD_PAIRS, R1, R2, S, ScenarioConfig, TrialBlock

# Log-distance path loss diverges as d -> 0; relays can be drawn arbitrarily
# close to an endpoint, so distances are clamped to this floor.
MIN_DISTANCE_M = 1.0

# Directed payload links (tx, rx) every strategy evaluation may consume:
# the columns of link_sinrs.
SD, DS, SR1, R1D, DR1, R1S, SR2, R2D = range(8)
LINKS = ((S, D), (D, S), (S, R1), (R1, D), (D, R1), (R1, S), (S, R2), (R2, D))

# Per link: the payload pair whose fading it uses, and its receiver.
_LINK_PAIR = [PAYLOAD_PAIRS.index(link if link in PAYLOAD_PAIRS
                                  else link[::-1]) for link in LINKS]
_LINK_RX = [rx for _, rx in LINKS]


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


def received_mw(config: ScenarioConfig, power_dbm, freq_mhz,
                offset: np.ndarray, fading):
    """Received power in mW over the (..., 2) offsets in m between tx and
    rx, of either sign, as only their squares enter: transmit power plus
    both antennas' gain minus the ITU indoor path loss
    20*log10(f_MHz) + N*log10(d_m) - 28, d clamped to MIN_DISTANCE_M, times
    the power gain |h|^2 of the links' Rayleigh fading. It is computed in
    linear form, K * f^-2 * max(d^2, MIN_DISTANCE_M^2)^(-N/20) * |h|^2 with
    K = 10^((P + 2G + 28)/10), so no logarithm and no square root is taken.
    Every step after x*x writes into it, so freq_mhz and fading broadcast
    to the offsets' shape. K is a numpy scalar: a power it overflows
    raises FloatingPointError under np.errstate(over="raise")."""
    x, y = offset[..., 0], offset[..., 1]
    gain = np.multiply(x, x, out=np.empty(np.shape(x)))
    gain += y * y
    np.maximum(gain, MIN_DISTANCE_M * MIN_DISTANCE_M, out=gain)
    gain **= -config.path_loss_coeff_db_per_decade / 20.0
    k = dbm_to_mw(np.float64(power_dbm + 2.0 * config.antenna_gain_db + 28.0))
    gain *= k / (freq_mhz * freq_mhz)
    gain *= fading
    return gain


def place(u: np.ndarray, distance_m) -> np.ndarray:
    """Positions in m of U[0, 1) variate pairs (..., 2) in the box
    [0, L] x [-L/2, L/2]. Generator.uniform(low, high) computes
    low + (high - low) * u, so this matches drawing each coordinate with
    it, bit for bit. A 1-D array of G distances adds a leading axis of
    length G; a scalar distance adds none."""
    d = np.reshape(distance_m, np.shape(distance_m) + (1,) * u.ndim)
    xy = u * d
    xy[..., 1] -= d[..., 0] / 2
    return xy


def interference_mw(block: TrialBlock, config: ScenarioConfig,
                    relay_xy: np.ndarray, distance_m) -> np.ndarray:
    """Aggregate interference power in mW at each node of the block
    placed at distance_m, whose relays place put at relay_xy, shape
    (B, 4), or (G, B, 4) at a 1-D array of G distances, with node columns
    S, D, R1, R2.

    Only interferers occupying the trial's channel contribute; each enters
    through its own path loss and Rayleigh gain and is treated as extra
    Gaussian noise. The co-channel (trial, interferer) pairs are found
    once, for every distance, and only their powers are computed, against
    node rows of their trials alone (padding has carrier 0, so it is
    never one). They are added into zeros in trial-major, interferer
    order, so each node's terms are still added in interferer order, and
    0.0 + p == p keeps every sum's bits.
    """
    trials, n = block.interferer_mhz.shape
    total = np.zeros(relay_xy.shape[:-2] + (4,))
    t, k = np.nonzero(block.interferer_mhz == block.carrier_mhz[:, None])
    # S at the origin, D at (L, 0) and the relays, of the co-channel trials
    node_xy = np.zeros(relay_xy.shape[:-3] + (len(t), 4, 2))
    node_xy[..., R1:, :] = relay_xy[..., t, :, :]
    node_xy[..., D, 0] = np.reshape(distance_m, np.shape(distance_m) + (1,))
    offset = place(block.interferer_u[t, k], distance_m)[..., None, :] \
        - node_xy
    fading = block.fading[:, len(PAYLOAD_PAIRS):].reshape(trials, n, 4)[t, k]
    power = received_mw(config, config.interferer_power_dbm,
                        block.carrier_mhz[t, None], offset, fading)
    np.add.at(total, (..., t, slice(None)), power)
    return total


def _payload_offsets(relay_xy: np.ndarray, distance_m) -> np.ndarray:
    """The (..., 5, 2) tx - rx offsets of the PAYLOAD_PAIRS (S, D),
    (S, R1), (R1, D), (S, R2), (R2, D), up to sign, straight from the
    placed relays R: S at the origin and D at (L, 0) give (L, 0), R and
    (Rx - L, Ry)."""
    length = np.reshape(distance_m, np.shape(distance_m) + (1,))
    offset = np.empty(relay_xy.shape[:-2] + (len(PAYLOAD_PAIRS), 2))
    x, y = offset[..., 0], offset[..., 1]
    x[..., 0], y[..., 0] = length, 0.0
    x[..., 1::2], y[..., 1::2] = relay_xy[..., 0], relay_xy[..., 1]
    np.subtract(relay_xy[..., 0], length[..., None], out=x[..., 2::2])
    y[..., 2::2] = relay_xy[..., 1]
    return offset


def link_sinrs(block: TrialBlock, config: ScenarioConfig,
               distance_m) -> np.ndarray:
    """Linear SINR of every directed payload link of the block placed at
    distance_m, shape (B, 8), or (G, B, 8) at a 1-D array of G distances,
    with columns SD, DS, SR1, R1D, DR1, R1S, SR2, R2D. Every operation is
    element-wise or sums over interferers, so a row's SINRs do not depend
    on the other distances of the call. The relays are placed once: the
    payload offsets come straight from them, and interference_mw builds
    node rows for the co-channel trials alone."""
    relay_xy = place(block.relay_u, distance_m)
    signal = received_mw(config, config.tx_power_dbm,
                         block.carrier_mhz[:, None],
                         _payload_offsets(relay_xy, distance_m),
                         block.fading[:, :len(PAYLOAD_PAIRS)])
    if config.blocked_direct:
        signal[..., PAYLOAD_PAIRS.index((S, D))] = 0.0
    noise = interference_mw(block, config, relay_xy, distance_m)
    noise += dbm_to_mw(config.noise_power_dbm)
    # rebound, so the per-pair powers are freed before the gather below
    signal = signal[..., _LINK_PAIR]
    signal /= noise[..., _LINK_RX]
    return signal

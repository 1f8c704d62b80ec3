"""Per-link SINRs of a block of trials at one or several distances:
placement of the block's position variates, ITU indoor path loss,
Rayleigh fading, dB conversions and interference aggregation."""

from __future__ import annotations

import math
import numpy as np

from .scenario import D, PAYLOAD_PAIRS, R1, R2, S, ScenarioConfig, TrialBlock

# Log-distance path loss diverges as d -> 0; relays can be drawn arbitrarily
# close to an endpoint, so distances are clamped to this floor.
MIN_DISTANCE_M = 1.0

# Logarithms go through np.log alone: each further numpy math routine a
# run calls (np.log10, np.log2, ...) pages in about 64 KiB more of numpy's
# code, which shows in the peak memory of a run.
_LN10 = math.log(10.0)

# Directed payload links (tx, rx) every strategy evaluation may consume:
# the columns of link_sinrs.
SD, DS, SR1, R1D, DR1, R1S, SR2, R2D = range(8)
LINKS = ((S, D), (D, S), (S, R1), (R1, D), (D, R1), (R1, S), (S, R2), (R2, D))

_PAIR_TX, _PAIR_RX = np.array(PAYLOAD_PAIRS).T
# Per link: the payload pair whose fading it uses, and its receiver.
_LINK_PAIR = [PAYLOAD_PAIRS.index(link if link in PAYLOAD_PAIRS
                                  else link[::-1]) for link in LINKS]
_LINK_RX = [rx for _, rx in LINKS]


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


def path_loss_db(freq_mhz, distance_m, coeff_db_per_decade: float = 28.0):
    """ITU indoor path loss in dB, zero floor-penetration term.

    20*log10(f_MHz) + N*log10(d_m) - 28, with d clamped to MIN_DISTANCE_M.
    Frequencies and distances may be broadcastable arrays.
    """
    if not np.min(freq_mhz) > 0:
        raise ValueError("frequency must be positive")
    if coeff_db_per_decade <= 0:
        raise ValueError("path loss coefficient must be positive")
    d = np.maximum(distance_m, MIN_DISTANCE_M)
    return 20.0 * (np.log(freq_mhz) / _LN10) \
        + coeff_db_per_decade * (np.log(d) / _LN10) - 28.0


def received_mw(power_dbm, gain_db, path_loss, fading):
    """Received power in mW of a link: transmit power plus antenna gains
    minus path loss, times the power gain |h|^2 of its Rayleigh fading."""
    return dbm_to_mw(power_dbm + gain_db - path_loss) * fading


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


def node_positions(block: TrialBlock, distance_m) -> np.ndarray:
    """S, D, R1, R2 positions in m of each trial, shape (B, 4, 2), or
    (G, B, 4, 2) at a 1-D array of G distances: S at the origin, D at
    (L, 0), the relays placed in the box."""
    lead = np.shape(distance_m)
    xy = np.zeros(lead + (len(block.carrier_mhz), 4, 2))
    xy[..., R1:, :] = place(block.relay_u, distance_m)
    xy[..., D, 0] = np.reshape(distance_m, lead + (1,))
    return xy


def interference_mw(block: TrialBlock, config: ScenarioConfig,
                    node_xy: np.ndarray, distance_m) -> np.ndarray:
    """Aggregate interference power in mW at each node of the block
    placed at distance_m, whose node_positions are node_xy, shape (B, 4),
    or (G, B, 4) at a 1-D array of G distances, with node columns S, D,
    R1, R2.

    Only interferers occupying the trial's channel contribute; each enters
    through its own path loss and Rayleigh gain and is treated as extra
    Gaussian noise. The co-channel (trial, interferer) pairs are found
    once, for every distance, and only their powers are computed (padding
    has carrier 0, so it is never one). They are added into zeros in
    trial-major, interferer order, so each node's terms are still added
    in interferer order, and 0.0 + p == p keeps every sum's bits.
    """
    trials, n = block.interferer_mhz.shape
    total = np.zeros(node_xy.shape[:-2] + (4,))
    t, k = np.nonzero(block.interferer_mhz == block.carrier_mhz[:, None])
    if not t.size:  # path_loss_db's np.min cannot take an empty array
        return total
    offset = place(block.interferer_u[t, k], distance_m)[..., None, :] \
        - node_xy[..., t, :, :]
    pl = path_loss_db(block.carrier_mhz[t, None],
                      np.hypot(offset[..., 0], offset[..., 1]),
                      config.path_loss_coeff_db_per_decade)
    fading = block.fading[:, len(PAYLOAD_PAIRS):].reshape(trials, n, 4)[t, k]
    power = received_mw(config.interferer_power_dbm,
                        2.0 * config.antenna_gain_db, pl, fading)
    np.add.at(total, (..., t, slice(None)), power)
    return total


def link_sinrs(block: TrialBlock, config: ScenarioConfig,
               distance_m=None) -> np.ndarray:
    """Linear SINR of every directed payload link of the block placed at
    distance_m (default config.distance_m), shape (B, 8), or (G, B, 8) at
    a 1-D array of G distances, with columns SD, DS, SR1, R1D, DR1, R1S,
    SR2, R2D. Every operation is element-wise or sums over interferers,
    so a row's SINRs do not depend on the other distances of the call."""
    L = config.distance_m if distance_m is None else distance_m
    node_xy = node_positions(block, L)
    offset = node_xy[..., _PAIR_TX, :] - node_xy[..., _PAIR_RX, :]
    pl = path_loss_db(block.carrier_mhz[:, None],
                      np.hypot(offset[..., 0], offset[..., 1]),
                      config.path_loss_coeff_db_per_decade)
    signal = received_mw(config.tx_power_dbm, 2.0 * config.antenna_gain_db,
                         pl, block.fading[:, :len(PAYLOAD_PAIRS)])
    if config.blocked_direct:
        signal[..., PAYLOAD_PAIRS.index((S, D))] = 0.0
    noise = dbm_to_mw(config.noise_power_dbm)
    return signal[..., _LINK_PAIR] / (
        interference_mw(block, config, node_xy, L)[..., _LINK_RX] + noise)

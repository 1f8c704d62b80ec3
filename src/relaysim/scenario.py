"""Experiment configuration and randomized per-trial draws.

One trial of the simulator places a source at the origin, a destination
at (L, 0), two relays and a handful of co-band interferers uniformly in
the box [0, L] x [-L/2, L/2], picks a random ZigBee channel, and draws
an independent Rayleigh fading gain for every link. Everything is derived
deterministically from (seed, trial_index); draw_block is the one
place that fixes the order of the draws.

The draws do not depend on L: a block holds each position as its U[0, 1)
variates and each link's fading as its power gain, and
propagation.link_sinrs places the block in the box of a given distance.
So one block serves every distance point of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHANNEL_INDEX_MIN = 11
CHANNEL_INDEX_MAX = 26

# Node rows of the positions propagation.link_sinrs places.
S, D, R1, R2 = range(4)

# Node pairs whose links carry payload for at least one strategy, in the
# order their fading is drawn. Fading is reciprocal within a trial (TDD on
# a single carrier), so one gain per pair serves both directions.
PAYLOAD_PAIRS = ((S, D), (S, R1), (R1, D), (S, R2), (R2, D))

_SQRT_HALF = math.sqrt(0.5)


def channel_frequency(k: int) -> float:
    """Center frequency in MHz of ZigBee channel index k (2405 + 5(k-11))."""
    if not CHANNEL_INDEX_MIN <= k <= CHANNEL_INDEX_MAX:
        raise ValueError(
            f"channel index {k} outside valid range "
            f"[{CHANNEL_INDEX_MIN}, {CHANNEL_INDEX_MAX}]"
        )
    return _center_mhz(k)


def _center_mhz(k):
    """channel_frequency without the range check; k may be an array."""
    return 2405.0 + 5.0 * (k - CHANNEL_INDEX_MIN)


def power_gain(normals):
    """|h|^2 of the Rayleigh gain h = (re + j*im) / sqrt(2), E|h|^2 = 1,
    from the standard-normal pairs (re, im) on the last axis of
    `normals`."""
    h = np.hypot(normals[..., 0] * _SQRT_HALF, normals[..., 1] * _SQRT_HALF)
    return h * h


def trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Independent random stream for one trial.

    The mixing function is part of the reproducibility contract:
    PCG64 seeded with SeedSequence(entropy=seed,
    spawn_key=(trial_index,)). Any parallel schedule that assigns whole
    trials to workers reproduces the sequential results bit for bit.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical-layer and geometric parameters of one experiment.

    Defaults follow the smart-grid NAN setting: ZigBee channels at 2.4 GHz,
    0 dBm transmit power, 2.5 dB antenna gain per antenna, -110 dBm noise
    (absolute, so no bandwidth enters), ITU indoor path loss at
    28 dB/decade, and 1 to 3 interferers at 3 dBm. interferer_power_dbm
    may be -inf to disable interference entirely. The field names are the
    config-file keys of the command line.
    """

    distance_m: float = 70.0
    tx_power_dbm: float = 0.0
    interferer_power_dbm: float = 3.0
    antenna_gain_db: float = 2.5
    noise_power_dbm: float = -110.0
    path_loss_coeff_db_per_decade: float = 28.0
    blocked_direct: bool = False
    interferer_min: int = 1
    interferer_max: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.distance_m) and self.distance_m > 0):
            raise ValueError("distance_m must be positive and finite")
        if not 0 <= self.interferer_min <= self.interferer_max:
            raise ValueError("interferer_min and interferer_max must satisfy "
                             "0 <= interferer_min <= interferer_max")
        for name in ("tx_power_dbm", "antenna_gain_db", "noise_power_dbm",
                     "path_loss_coeff_db_per_decade"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if math.isnan(self.interferer_power_dbm) or \
                self.interferer_power_dbm == math.inf:
            raise ValueError("interferer_power_dbm must be finite or -inf")
        if self.path_loss_coeff_db_per_decade <= 0:
            raise ValueError("path_loss_coeff_db_per_decade must be > 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class TrialBlock:
    """The draws of consecutive trials, one row per trial, independent of
    the distance L.

    Positions are the U[0, 1) variates of their (x, y) coordinates.
    Channel draws are stored as carrier frequencies. Interferer arrays
    have interferer_max columns; a trial that drew fewer interferers has
    padding in the rest: carrier 0 and zero fading, so it adds no
    interference. `fading` holds each link's power gain |h|^2: the
    PAYLOAD_PAIRS first, then, per interferer, its links to S, D, R1 and
    R2.
    """

    carrier_mhz: np.ndarray     # (B,) the link's channel
    relay_u: np.ndarray         # (B, 2, 2) R1, R2 position variates
    interferer_u: np.ndarray    # (B, n, 2) position variates
    interferer_mhz: np.ndarray  # (B, n) each interferer's channel
    fading: np.ndarray          # (B, 5 + 4n) power gains


def draw_block(config: ScenarioConfig, start: int, stop: int) -> TrialBlock:
    """Draw trials [start, stop) of an experiment; config.distance_m is
    not used.

    Each trial reads only its own trial_stream, in this order, which is
    part of the reproducibility contract:
      1. channel index k ~ U{11..26}
      2. relay 1 and relay 2 positions, x and y each ~ U[0, 1)
      3. interferer count ~ U{min..max}, then per interferer: x, y, channel
      4. fading normals for the payload pairs, then the interferer links
    Two relays are always drawn so that every strategy sees the same
    channel realization (paired comparisons).
    """
    trials = stop - start
    lo, hi = config.interferer_min, config.interferer_max
    channels = (CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1)
    # Channel indices are converted to MHz once per block. They are kept
    # in float arrays, which hold them exactly, and stored as Python ints:
    # an integer array, or numpy integers stored into a float array,
    # pages in 64-190 KiB more of numpy's code, which shows in the peak
    # memory of a run.
    carrier_k = np.empty(trials)
    relay_u = np.empty((trials, 2, 2))
    interferer_u = np.zeros((trials, hi, 2))
    interferer_k = np.zeros((trials, hi))  # 0: padding
    normals = np.zeros((trials, len(PAYLOAD_PAIRS) + 4 * hi, 2))
    for t in range(trials):
        rng = trial_stream(config.seed, start + t)
        carrier_k[t] = int(rng.integers(*channels))
        rng.random(out=relay_u[t])
        n = rng.integers(lo, hi + 1)
        for j in range(n):
            rng.random(out=interferer_u[t, j])
            interferer_k[t, j] = int(rng.integers(*channels))
        rng.standard_normal(out=normals[t, :len(PAYLOAD_PAIRS) + 4 * n])
    interferer_mhz = np.where(interferer_k > 0, _center_mhz(interferer_k), 0.0)
    return TrialBlock(_center_mhz(carrier_k), relay_u, interferer_u,
                      interferer_mhz, power_gain(normals))

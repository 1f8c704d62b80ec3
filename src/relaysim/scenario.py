"""Experiment configuration and randomized per-trial draws.

One trial of the simulator places a source at the origin, a destination
at (L, 0), two relays and a handful of co-band interferers uniformly in
the box [0, L] x [-L/2, L/2], picks a random ZigBee channel, and draws
an independent Rayleigh fading gain for every link. Everything is derived
deterministically from (master_seed, trial_index); draw_block is the one
place that fixes the order of the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHANNEL_INDEX_MIN = 11
CHANNEL_INDEX_MAX = 26

# Node rows of TrialBlock.node_xy.
S, D, R1, R2 = range(4)

# Node pairs whose links carry payload for at least one strategy, in the
# order their fading is drawn. Fading is reciprocal within a trial (TDD on
# a single carrier), so one gain per pair serves both directions.
PAYLOAD_PAIRS = ((S, D), (S, R1), (R1, D), (S, R2), (R2, D))


def channel_frequency(k: int) -> float:
    """Center frequency in MHz of ZigBee channel index k (2405 + 5(k-11))."""
    if not CHANNEL_INDEX_MIN <= k <= CHANNEL_INDEX_MAX:
        raise ValueError(
            f"channel index {k} outside valid range "
            f"[{CHANNEL_INDEX_MIN}, {CHANNEL_INDEX_MAX}]"
        )
    return 2405.0 + 5.0 * (k - CHANNEL_INDEX_MIN)


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent random stream for one trial.

    The mixing function is part of the reproducibility contract:
    PCG64 seeded with SeedSequence(entropy=master_seed,
    spawn_key=(trial_index,)). Any parallel schedule that assigns whole
    trials to workers reproduces the sequential results bit for bit.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical-layer and geometric parameters of one experiment.

    Defaults follow the smart-grid NAN setting: ZigBee channels at 2.4 GHz,
    0 dBm transmit power, 2.5 dB antenna gain per antenna, -110 dBm noise
    (absolute, so no bandwidth enters), ITU indoor path loss at
    28 dB/decade, and 1 to 3 interferers at 3 dBm. interferer_power_dbm
    may be -inf to disable interference entirely.
    """

    distance_m: float = 70.0
    tx_power_dbm: float = 0.0
    interferer_power_dbm: float = 3.0
    antenna_gain_db: float = 2.5
    noise_power_dbm: float = -110.0
    path_loss_coeff_db_per_decade: float = 28.0
    direct_blocked: bool = False
    interferer_count_range: tuple[int, int] = (1, 3)
    master_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.distance_m) and self.distance_m > 0):
            raise ValueError("distance_m must be positive and finite")
        lo, hi = self.interferer_count_range
        if lo < 0 or lo > hi:
            raise ValueError(
                "interferer_count_range must satisfy 0 <= min <= max"
            )
        for name in ("tx_power_dbm", "antenna_gain_db", "noise_power_dbm",
                     "path_loss_coeff_db_per_decade"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if math.isnan(self.interferer_power_dbm) or \
                self.interferer_power_dbm == math.inf:
            raise ValueError("interferer_power_dbm must be finite or -inf")
        if self.path_loss_coeff_db_per_decade <= 0:
            raise ValueError("path_loss_coeff_db_per_decade must be > 0")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")




@dataclass(frozen=True)
class TrialBlock:
    """The draws of consecutive trials, one row per trial.

    Channel draws are stored as carrier frequencies. Interferer arrays
    have interferer_count_range[1] columns; a trial that drew fewer
    interferers has padding in the rest: carrier 0 and zero fading, so it
    adds no interference. `fading` holds the standard-normal pair
    (re, im) behind each link's complex gain: the PAYLOAD_PAIRS first,
    then, per interferer, its links to S, D, R1 and R2.
    """

    carrier_mhz: np.ndarray     # (B,) the link's channel
    node_xy: np.ndarray         # (B, 4, 2) S, D, R1, R2 positions in m
    interferer_xy: np.ndarray   # (B, n, 2) positions in m
    interferer_mhz: np.ndarray  # (B, n) each interferer's channel
    fading: np.ndarray          # (B, 5 + 4n, 2)


def draw_block(config: ScenarioConfig, start: int, stop: int) -> TrialBlock:
    """Draw trials [start, stop) of an experiment.

    Each trial reads only its own trial_stream, in this order, which is
    part of the reproducibility contract:
      1. channel index k ~ U{11..26}
      2. relay 1 and relay 2 positions, x ~ U[0, L], y ~ U[-L/2, L/2]
      3. interferer count ~ U{min..max}, then per interferer: x, y, channel
      4. fading normals for the payload pairs, then the interferer links
    Two relays are always drawn so that every strategy sees the same
    channel realization (paired comparisons).
    """
    trials = stop - start
    L = config.distance_m
    lo, hi = config.interferer_count_range
    carrier_mhz = np.empty(trials)
    node_xy = np.zeros((trials, 4, 2))
    interferer_xy = np.zeros((trials, hi, 2))
    interferer_mhz = np.zeros((trials, hi))
    fading = np.zeros((trials, len(PAYLOAD_PAIRS) + 4 * hi, 2))
    for t in range(trials):
        rng = trial_stream(config.master_seed, start + t)
        carrier_mhz[t] = channel_frequency(
            rng.integers(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1))
        rng.random(out=node_xy[t, R1:])  # U[0, 1), mapped to the box below
        n = rng.integers(lo, hi + 1)
        for j in range(n):
            rng.random(out=interferer_xy[t, j])
            interferer_mhz[t, j] = channel_frequency(
                rng.integers(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1))
        rng.standard_normal(out=fading[t, :len(PAYLOAD_PAIRS) + 4 * n])
    # Generator.uniform(low, high) computes low + (high - low) * u, so
    # this matches drawing each coordinate with it, bit for bit.
    for xy in (node_xy[:, R1:], interferer_xy):
        xy *= L
        xy[..., 1] -= L / 2
    node_xy[:, D, 0] = L
    return TrialBlock(carrier_mhz, node_xy, interferer_xy, interferer_mhz,
                      fading)

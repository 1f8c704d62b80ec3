"""Experiment configuration and randomized per-trial draws.

One trial of the simulator places a source at the origin, a destination
at (L, 0), two relays and a handful of co-band interferers uniformly in
the box [0, L] x [-L/2, L/2], picks a random ZigBee channel, and draws
an independent Rayleigh fading gain for every link. Everything is derived
deterministically from (seed, trial_index) under RNG_CONTRACT: trials
come in fixed blocks of BLOCK_TRIALS, each block reads its own random
stream, and draw_block is the one place that fixes the order of its
draws.

The draws do not depend on L: a block holds each position as its U[0, 1)
variates and each link's fading as its power gain, and
propagation.link_sinrs places the block in the box of a given distance.
So one block serves every distance point of a sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

CHANNEL_INDEX_MIN = 11
CHANNEL_INDEX_MAX = 26

# Trials per contract block: trial i is row i % BLOCK_TRIALS of block
# i // BLOCK_TRIALS, and each block reads one stream, so a run builds one
# generator per block, not per trial. Part of the reproducibility
# contract, and the engine's block (montecarlo). Of 64 and 256, 256 ran
# bench/run.py's cdf_w1 at 72k trials/s against 55k on a 2-vCPU host
# (stream set-up and numpy's per-call cost are spread over more trials),
# while both raised sweep_w1's peak RSS about as much (2.4% and 2.7%).
BLOCK_TRIALS = 256
RNG_CONTRACT = (f"v3: PCG64(SeedSequence(entropy=seed, spawn_key=(block,))) "
                f"per block of {BLOCK_TRIALS} trials, Exp(1) link power "
                "gains")

# Node rows of the positions propagation.link_sinrs places.
S, D, R1, R2 = range(4)

# Node pairs whose links carry payload for at least one strategy, in the
# order their fading is drawn. Fading is reciprocal within a trial (TDD on
# a single carrier), so one gain per pair serves both directions.
PAYLOAD_PAIRS = ((S, D), (S, R1), (R1, D), (S, R2), (R2, D))


def _center_mhz(k):
    """Center frequency in MHz of ZigBee channel index k (2405 + 5(k-11));
    k may be an array."""
    return 2405.0 + 5.0 * (k - CHANNEL_INDEX_MIN)


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
        if not isinstance(self.blocked_direct, bool):
            raise ValueError("blocked_direct must be a boolean")
        for name in ("interferer_min", "interferer_max", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
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
    padding in the rest, marked by carrier 0 alone: it is never on the
    trial's channel, so it adds no interference. `fading` holds each
    link's power gain |h|^2 of unit-mean Rayleigh fading, which is
    Exp(1), as drawn: the PAYLOAD_PAIRS first, then, per interferer slot,
    its links to S, D, R1 and R2.
    """

    carrier_mhz: np.ndarray     # (B,) the link's channel
    relay_u: np.ndarray         # (B, 2, 2) R1, R2 position variates
    interferer_u: np.ndarray    # (B, n, 2) position variates
    interferer_mhz: np.ndarray  # (B, n) each interferer's channel
    fading: np.ndarray          # (B, 5 + 4n) power gains


def draw_block(config: ScenarioConfig, start: int, stop: int) -> TrialBlock:
    """Draw trials [start, stop) of an experiment; config.distance_m is
    not used.

    The covering contract blocks are drawn whole and the rows of the
    range sliced out, so a trial's row does not depend on the range it
    is drawn in. Block b reads only the stream of RNG_CONTRACT keyed by
    (config.seed, b), and makes these fixed-shape draws, in this order,
    which is part of the reproducibility contract (B = BLOCK_TRIALS,
    n = config.interferer_max):
      1. B channel indices k ~ U{11..26}
      2. (B, 2, 2) relay 1 and relay 2 position variates, each ~ U[0, 1)
      3. B interferer counts ~ U{interferer_min..n}
      4. (B, n, 2) interferer position variates ~ U[0, 1)
      5. (B, n) interferer channel indices ~ U{11..26}
      6. (B, 5 + 4n) link power gains |h|^2 ~ Exp(1): the payload
         pairs, then per interferer its links to S, D, R1 and R2
    A trial's interferers beyond its count are padding, marked by
    carrier 0 alone (their positions and gains are drawn but unused). Two
    relays are always drawn so that every strategy sees the same channel
    realization (paired comparisons).
    """
    if not 0 <= start < stop:
        raise ValueError(f"trial range [{start}, {stop}) is empty or "
                         "negative")
    lo, hi = config.interferer_min, config.interferer_max
    channels = (CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1)
    first, last = start // BLOCK_TRIALS, -(-stop // BLOCK_TRIALS)
    # The covering blocks are drawn in place, each into its own rows of one
    # float array per draw, and the range is returned as views of its rows.
    # The integer draws are assigned into floats, which hold them exactly,
    # before any arithmetic: integer comparisons and mixed-type arithmetic
    # page in 64-128 KiB more of numpy's code each, which shows in the
    # peak memory of a run.
    n = (last - first) * BLOCK_TRIALS
    carrier_k, relay_u, count, interferer_u, interferer_k, gains = (
        np.empty((n,) + shape) for shape in
        ((), (2, 2), (), (hi, 2), (hi,), (len(PAYLOAD_PAIRS) + 4 * hi,)))
    for i, b in enumerate(range(first, last)):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(b,))))
        rows = slice(i * BLOCK_TRIALS, (i + 1) * BLOCK_TRIALS)
        carrier_k[rows] = rng.integers(*channels, BLOCK_TRIALS)
        rng.random(out=relay_u[rows])
        count[rows] = rng.integers(lo, hi + 1, BLOCK_TRIALS)
        rng.random(out=interferer_u[rows])
        interferer_k[rows] = rng.integers(*channels, (BLOCK_TRIALS, hi))
        rng.standard_exponential(out=gains[rows])
    rows = slice(start - first * BLOCK_TRIALS, stop - first * BLOCK_TRIALS)
    interferer_mhz = np.where(np.arange(hi) < count[rows, None],
                              _center_mhz(interferer_k[rows]), 0.0)
    return TrialBlock(_center_mhz(carrier_k[rows]), relay_u[rows],
                      interferer_u[rows], interferer_mhz, gains[rows])

"""Experiment configuration and per-trial randomized geometry.

One trial of the simulator places a source at the origin, a destination
at (L, 0), up to two relays and a handful of co-band interferers uniformly
in the box [0, L] x [-L/2, L/2], picks a random ZigBee channel, and draws
an independent Rayleigh fading gain for every link. Everything is derived
deterministically from (master_seed, trial_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .propagation import draw_fading

NODE_SOURCE = "S"
NODE_DEST = "D"
NODE_RELAY1 = "R1"
NODE_RELAY2 = "R2"

CHANNEL_INDEX_MIN = 11
CHANNEL_INDEX_MAX = 26

# Undirected links that carry payload for at least one strategy. Fading is
# reciprocal within a trial (TDD on a single carrier), so one complex gain
# is drawn per pair and shared by both directions.
_PAYLOAD_LINKS = (
    (NODE_SOURCE, NODE_DEST),
    (NODE_SOURCE, NODE_RELAY1),
    (NODE_RELAY1, NODE_DEST),
    (NODE_SOURCE, NODE_RELAY2),
    (NODE_RELAY2, NODE_DEST),
)

_RECEIVERS = (NODE_SOURCE, NODE_DEST, NODE_RELAY1, NODE_RELAY2)


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
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Interferer:
    """A co-band unlicensed user: position, transmit power, and the ZigBee
    channel it occupies. It only degrades receivers whose trial landed on
    the same channel."""

    position: Position
    power_dbm: float
    channel_index: int


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


@dataclass
class ScenarioSample:
    """One Monte Carlo draw: geometry, carrier, interferers and fading.

    fading maps a directed node pair to the complex channel gain; payload
    links store the same gain in both directions (reciprocity within a
    trial), interferer links are keyed (interferer label, receiver).
    """

    source_pos: Position
    destination_pos: Position
    relay_positions: tuple[Position, ...]
    interferers: tuple[Interferer, ...]
    channel_index: int
    carrier_freq_mhz: float
    fading: dict[tuple[str, str], complex] = field(default_factory=dict)

    def position_of(self, label: str) -> Position:
        if label == NODE_SOURCE:
            return self.source_pos
        if label == NODE_DEST:
            return self.destination_pos
        if label == NODE_RELAY1:
            return self.relay_positions[0]
        if label == NODE_RELAY2:
            return self.relay_positions[1]
        if label.startswith("I"):
            return self.interferers[int(label[1:])].position
        raise KeyError(f"unknown node label {label!r}")

    def fading_gain(self, tx: str, rx: str) -> complex:
        return self.fading[(tx, rx)]


def sample_positions(config: ScenarioConfig,
                     trial_index: int) -> ScenarioSample:
    """Draw one trial's randomized scenario.

    Pure function of (config, trial_index): the draw order below is fixed
    and is part of the reproducibility contract.
      1. channel index k ~ U{11..26}
      2. relay 1 and relay 2 positions, x ~ U[0, L], y ~ U[-L/2, L/2]
      3. interferer count ~ U{min..max}, then per interferer: x, y, channel
      4. fading for the five payload links, then interferer->receiver links
    Two relays are always drawn so that every strategy sees the same
    channel realization (paired comparisons).
    """
    rng = trial_stream(config.master_seed, trial_index)
    L = config.distance_m

    k = int(rng.integers(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1))
    relays = tuple(
        Position(float(rng.uniform(0.0, L)),
                 float(rng.uniform(-L / 2, L / 2)))
        for _ in range(2)
    )

    lo, hi = config.interferer_count_range
    n_int = int(rng.integers(lo, hi + 1))
    interferers = tuple(
        Interferer(
            Position(float(rng.uniform(0.0, L)),
                     float(rng.uniform(-L / 2, L / 2))),
            config.interferer_power_dbm,
            int(rng.integers(CHANNEL_INDEX_MIN, CHANNEL_INDEX_MAX + 1)),
        )
        for _ in range(n_int)
    )

    fading: dict[tuple[str, str], complex] = {}
    for a, b in _PAYLOAD_LINKS:
        h = draw_fading(rng)
        fading[(a, b)] = h
        fading[(b, a)] = h
    for j in range(n_int):
        for rx in _RECEIVERS:
            fading[(f"I{j}", rx)] = draw_fading(rng)

    return ScenarioSample(
        source_pos=Position(0.0, 0.0),
        destination_pos=Position(L, 0.0),
        relay_positions=relays,
        interferers=interferers,
        channel_index=k,
        carrier_freq_mhz=channel_frequency(k),
        fading=fading,
    )

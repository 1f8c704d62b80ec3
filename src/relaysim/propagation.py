"""Per-link SINRs: ITU indoor path loss, Rayleigh fading, dB conversions
and interference aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import ScenarioConfig, ScenarioSample

# Log-distance path loss diverges as d -> 0; relays can be drawn arbitrarily
# close to an endpoint, so distances are clamped to this floor.
MIN_DISTANCE_M = 1.0

_SQRT_HALF = math.sqrt(0.5)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    if mw <= 0:
        raise ValueError("power in mW must be positive")
    return 10.0 * math.log10(mw)


def path_loss_db(freq_mhz: float, distance_m: float,
                 coeff_db_per_decade: float = 28.0) -> float:
    """ITU indoor path loss in dB, zero floor-penetration term.

    20*log10(f_MHz) + N*log10(d_m) - 28, with d clamped to MIN_DISTANCE_M.
    """
    if freq_mhz <= 0:
        raise ValueError("frequency must be positive")
    if coeff_db_per_decade <= 0:
        raise ValueError("path loss coefficient must be positive")
    d = max(distance_m, MIN_DISTANCE_M)
    return 20.0 * math.log10(freq_mhz) \
        + coeff_db_per_decade * math.log10(d) - 28.0


def draw_fading(rng: np.random.Generator) -> complex:
    """Circularly-symmetric complex Gaussian gain with E|h|^2 = 1."""
    re, im = rng.standard_normal(2)
    return complex(re * _SQRT_HALF, im * _SQRT_HALF)


@dataclass(frozen=True)
class LinkBudget:
    """Received power bookkeeping for a single directed link."""

    tx_power_dbm: float
    path_loss_db: float
    antenna_gain_total_db: float
    fading_gain: complex

    @property
    def rx_power_dbm(self) -> float:
        return (self.tx_power_dbm + self.antenna_gain_total_db
                - self.path_loss_db
                + 20.0 * math.log10(abs(self.fading_gain)))

    @property
    def rx_power_mw(self) -> float:
        return dbm_to_mw(self.tx_power_dbm + self.antenna_gain_total_db
                         - self.path_loss_db) * abs(self.fading_gain) ** 2


@dataclass(frozen=True)
class LinkPower:
    """Linear SINR components of one directed link, all in mW."""

    signal_mw: float
    interference_mw: float
    noise_mw: float

    @property
    def sinr(self) -> float:
        return self.signal_mw / (self.interference_mw + self.noise_mw)


class LinkSet:
    """Per-trial SINR components for every directed link the strategies
    consume."""

    def __init__(self, entries: dict[tuple[str, str], LinkPower]):
        self.entries = entries

    def sinr(self, tx: str, rx: str) -> float:
        return self.entries[(tx, rx)].sinr


def _distance(sample: "ScenarioSample", a: str, b: str) -> float:
    return sample.position_of(a).distance_to(sample.position_of(b))


def interference_mw(rx: str, sample: "ScenarioSample",
                    config: "ScenarioConfig") -> float:
    """Aggregate interference power at a receiver in mW.

    Only interferers occupying the trial's channel contribute; each enters
    through its own path loss and Rayleigh gain and is treated as extra
    Gaussian noise.
    """
    total = 0.0
    gain = 2.0 * config.antenna_gain_db
    for j, interferer in enumerate(sample.interferers):
        if interferer.channel_index != sample.channel_index:
            continue
        h = sample.fading_gain(f"I{j}", rx)
        pl = path_loss_db(sample.carrier_freq_mhz,
                          _distance(sample, f"I{j}", rx),
                          config.path_loss_coeff_db_per_decade)
        total += dbm_to_mw(interferer.power_dbm + gain - pl) * abs(h) ** 2
    return total


def link_sinr(tx: str, rx: str, sample: "ScenarioSample",
              config: "ScenarioConfig") -> float:
    """Linear SINR of the directed link tx -> rx for one trial."""
    return _link_power(tx, rx, sample, config,
                       interference_mw(rx, sample, config)).sinr


def _link_power(tx: str, rx: str, sample: "ScenarioSample",
                config: "ScenarioConfig", interf_mw: float) -> LinkPower:
    if tx == rx:
        raise ValueError("link endpoints must differ")
    noise_mw = dbm_to_mw(config.noise_power_dbm)
    direct_pair = {tx, rx} == {"S", "D"}
    if config.direct_blocked and direct_pair:
        return LinkPower(0.0, interf_mw, noise_mw)
    try:
        h = sample.fading_gain(tx, rx)
    except KeyError:
        raise LookupError(f"no fading gain drawn for link {tx}->{rx}") \
            from None
    budget = LinkBudget(
        tx_power_dbm=config.tx_power_dbm,
        path_loss_db=path_loss_db(sample.carrier_freq_mhz,
                                  _distance(sample, tx, rx),
                                  config.path_loss_coeff_db_per_decade),
        antenna_gain_total_db=2.0 * config.antenna_gain_db,
        fading_gain=h,
    )
    return LinkPower(budget.rx_power_mw, interf_mw, noise_mw)


# Directed payload links every strategy evaluation may consume, grouped by
# receiver so interference is aggregated once per receiver.
_LINKS_BY_RECEIVER = {
    "D": (("S", "D"), ("R1", "D"), ("R2", "D")),
    "S": (("D", "S"), ("R1", "S")),
    "R1": (("S", "R1"), ("D", "R1")),
    "R2": (("S", "R2"),),
}


def build_link_set(sample: "ScenarioSample",
                   config: "ScenarioConfig") -> LinkSet:
    """Compute SINR components for all payload links of one trial."""
    entries: dict[tuple[str, str], LinkPower] = {}
    for rx, links in _LINKS_BY_RECEIVER.items():
        interf = interference_mw(rx, sample, config)
        for tx, _ in links:
            entries[(tx, rx)] = _link_power(tx, rx, sample, config, interf)
    return LinkSet(entries)

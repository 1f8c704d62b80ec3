"""Monte Carlo link-level simulator for cooperative relaying strategies
in a smart-grid neighborhood area network."""

from .montecarlo import (
    SummaryStats,
    percentile,
    run_cdf,
    run_sweep,
)
from .propagation import link_sinrs
from .scenario import (
    RNG_CONTRACT,
    ScenarioConfig,
    draw_block,
)
from .strategies import (
    StrategyKind,
    af_equivalent_snr,
    rate_af_beamform2,
    rate_af_single,
    rate_df_beamform2,
    rate_df_single,
    rate_direct,
    rate_exchange,
    rate_twoway_af,
    rate_twoway_df,
    strategy_rates,
)

__version__ = "0.1.0"

__all__ = [
    "RNG_CONTRACT",
    "ScenarioConfig",
    "StrategyKind",
    "SummaryStats",
    "af_equivalent_snr",
    "draw_block",
    "link_sinrs",
    "percentile",
    "rate_af_beamform2",
    "rate_af_single",
    "rate_df_beamform2",
    "rate_df_single",
    "rate_direct",
    "rate_exchange",
    "rate_twoway_af",
    "rate_twoway_df",
    "run_cdf",
    "run_sweep",
    "strategy_rates",
]

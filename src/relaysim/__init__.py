"""Monte Carlo link-level simulator for cooperative relaying strategies
in a smart-grid neighborhood area network."""

from .montecarlo import (
    SummaryStats,
    percentile,
    run_cdf,
    run_point,
    run_sweep,
)
from .propagation import link_sinrs, path_loss_db
from .scenario import (
    RNG_CONTRACT,
    ScenarioConfig,
    TrialBlock,
    draw_block,
)
from .strategies import (
    ALL_STRATEGIES,
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
    twoway_af_snrs,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_STRATEGIES",
    "RNG_CONTRACT",
    "ScenarioConfig",
    "StrategyKind",
    "SummaryStats",
    "TrialBlock",
    "af_equivalent_snr",
    "draw_block",
    "link_sinrs",
    "path_loss_db",
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
    "run_point",
    "run_sweep",
    "strategy_rates",
    "twoway_af_snrs",
]

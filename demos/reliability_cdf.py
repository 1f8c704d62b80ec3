"""Empirical spectral-efficiency CDFs at a fixed 70 m distance.

A steeper CDF means less trial-to-trial variation, i.e. a more reliable
link. Relaying adds spatial diversity, which narrows the distribution
relative to direct transmission.

Run:
    python demos/reliability_cdf.py [--trials N] [--blocked]
"""

import argparse

import numpy as np

from relaysim import ScenarioConfig, StrategyKind, percentile, run_cdf

STRATEGIES = (
    StrategyKind.DIRECT,
    StrategyKind.AF_SINGLE,
    StrategyKind.DF_SINGLE,
    StrategyKind.TWOWAY_AF,
    StrategyKind.TWOWAY_DF,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--blocked", action="store_true",
                        help="block the direct link")
    args = parser.parse_args()

    config = ScenarioConfig(distance_m=70.0, seed=7,
                            blocked_direct=args.blocked)
    cdfs = run_cdf(config, args.trials, STRATEGIES)

    print(f"{'strategy':>16} {'p10':>8} {'p50':>8} {'p90':>8} "
          f"{'(p90-p10)/p50':>14}")
    for kind in STRATEGIES:
        cdf = cdfs[kind]
        p10, p50, p90 = (percentile(cdf, p) for p in (10, 50, 90))
        spread = (p90 - p10) / p50 if p50 > 0 else float("inf")
        print(f"{kind.value:>16} {p10:8.3f} {p50:8.3f} {p90:8.3f} "
              f"{spread:14.2f}")

    # Step data of each CDF: the i-th (1-based) of n sorted values at i / n.
    steps = {kind: (cdf, np.arange(1, cdf.size + 1) / cdf.size)
             for kind, cdf in cdfs.items()}
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping plot")
        return
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for kind in STRATEGIES:
        ax.step(*steps[kind], where="post", label=kind.value)
    ax.set_xlabel("spectral efficiency [bits/s/Hz]")
    ax.set_ylabel("empirical CDF")
    title = "blocked direct link" if args.blocked else "direct available"
    ax.set_title(f"70 m, {args.trials} channel draws, {title}")
    ax.grid(True, alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("reliability_cdf.png", dpi=120)
    print("\nsaved reliability_cdf.png")


if __name__ == "__main__":
    main()

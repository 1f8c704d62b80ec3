"""Mean spectral efficiency versus end-to-end distance.

Sweeps the source-destination distance from 10 m to 100 m and compares
direct transmission with the one-way relaying strategies, once with the
direct link available and once with it blocked.

Run:
    python demos/distance_sweep.py [--trials N]
"""

import argparse

from relaysim import ScenarioConfig, StrategyKind, run_sweep

STRATEGIES = (
    StrategyKind.DIRECT,
    StrategyKind.AF_SINGLE,
    StrategyKind.DF_SINGLE,
    StrategyKind.AF_BEAMFORM2,
    StrategyKind.DF_BEAMFORM2,
)
DISTANCES = tuple(float(L) for L in range(10, 101, 10))


def sweep(blocked, trials):
    return run_sweep(ScenarioConfig(seed=1, blocked_direct=blocked),
                     DISTANCES, trials, STRATEGIES)


def print_table(results, title):
    print(f"\n{title}")
    print(f"{'L [m]':>6}", *(f"{k.value:>14}" for k in STRATEGIES))
    for L in DISTANCES:
        row = [f"{results[(k, L)].mean:14.3f}" for k in STRATEGIES]
        print(f"{L:6.0f}", *row)


def maybe_plot(available, blocked):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping plot")
        return
    fig, axes = plt.subplots(1, 2, figsize=(11, 4), sharey=True)
    for ax, results, title in ((axes[0], available, "direct available"),
                               (axes[1], blocked, "direct blocked")):
        for kind in STRATEGIES:
            ax.plot(DISTANCES, [results[(kind, L)].mean for L in DISTANCES],
                    marker="o", label=kind.value)
        ax.set_xlabel("distance [m]")
        ax.set_title(title)
        ax.grid(True, alpha=0.3)
    axes[0].set_ylabel("mean spectral efficiency [bits/s/Hz]")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("distance_sweep.png", dpi=120)
    print("\nsaved distance_sweep.png")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=2000)
    args = parser.parse_args()

    available = sweep(False, args.trials)
    blocked = sweep(True, args.trials)
    print_table(available, "Mean spectral efficiency, direct available")
    print_table(blocked, "Mean spectral efficiency, direct blocked")
    print("\nNote the half-duplex price of relaying: while the direct "
          "link is available, direct transmission beats every relaying "
          "strategy at every distance of the sweep at this power budget, "
          "despite the relays' combining gain; when it is blocked, "
          "relaying provides all of the coverage.")
    maybe_plot(available, blocked)


if __name__ == "__main__":
    main()

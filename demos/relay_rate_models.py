"""The rate models behind the simulator, on clean symmetric channels.

Shows how the per-strategy spectral efficiency behaves as a function of a
common per-hop SNR, without geometry or interference: the AF equivalent
SNR and its noise amplification penalty, the DF decode bottleneck, the
beamforming gain, and the slot-count advantage of bidirectional relaying
for information exchange.

Run:
    python demos/relay_rate_models.py
"""

import math

from relaysim import (
    af_equivalent_snr,
    rate_af_beamform2,
    rate_af_single,
    rate_df_beamform2,
    rate_df_single,
    rate_direct,
    rate_exchange,
    rate_twoway_af,
    rate_twoway_df,
)

SNRS_DB = range(-10, 31, 5)


def lin(db):
    return 10 ** (db / 10)


def main():
    print("One-way strategies; relay hops at SNR g, direct link at g/8")
    print(f"{'g [dB]':>7} {'direct':>8} {'af1':>8} {'df1':>8} "
          f"{'af2bf':>8} {'df2bf':>8} {'af_eq[dB]':>10}")
    for db in SNRS_DB:
        g = lin(db)
        g_sd = g / 8
        row = (
            rate_direct(g_sd),
            rate_af_single(g_sd, g, g),
            rate_df_single(g_sd, g, g),
            rate_af_beamform2(g_sd, g, g, g, g),
            rate_df_beamform2(g_sd, g, g, g, g),
            10 * math.log10(af_equivalent_snr(g, g)) if g > 0 else -99,
        )
        print(f"{db:7d} {row[0]:8.3f} {row[1]:8.3f} {row[2]:8.3f} "
              f"{row[3]:8.3f} {row[4]:8.3f} {row[5]:10.2f}")

    print("\nInformation exchange; both node-relay links at SNR g")
    print(f"{'g [dB]':>7} {'twoway_af':>10} {'twoway_df':>10} "
          f"{'4-slot af':>10}")
    for db in SNRS_DB:
        g = lin(db)
        twaf = sum(rate_twoway_af(g, g))
        twdf = sum(rate_twoway_df(g, g))
        # 4-slot unidirectional AF exchange, no direct link
        uni = sum(rate_exchange(rate_af_single, 0.0, g, g, 0.0, g, g))
        print(f"{db:7d} {twaf:10.3f} {twdf:10.3f} {uni:10.3f}")

    print("\nAt high SNR the two-slot exchange doubles the 4-slot rate; "
          "two-way DF pays for the inter-stream interference in the "
          "multiple-access slot.")


if __name__ == "__main__":
    main()

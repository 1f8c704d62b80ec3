"""Independent signal-level Monte Carlo oracles.

These simulate actual complex baseband symbols through the relay chains
and measure the end-to-end SNR empirically (via the correlation of the
received signal with the transmitted symbols), with no reference to the
closed-form SNR expressions they are used to check. payload_gains
samples the engine's own fading draws for the tests of their law, and
path_loss_db is the ITU indoor path loss in dB, the reference of the
engine's linear link budget.
"""

import numpy as np

from relaysim.propagation import MIN_DISTANCE_M
from relaysim.scenario import PAYLOAD_PAIRS, ScenarioConfig, draw_block


def _cn(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / np.sqrt(2.0)


def _measured_snr(received, reference):
    """Empirical SNR of `received` w.r.t. the unit-power symbols in
    `reference`: project onto the reference, the remainder is noise."""
    coef = np.vdot(reference, received) / np.vdot(reference, reference)
    signal = np.abs(coef) ** 2 * np.mean(np.abs(reference) ** 2)
    noise = np.mean(np.abs(received - coef * reference) ** 2)
    return float(signal / noise)


def af_hop_snr(g1, g2, n_symbols=1_000_000, seed=1234):
    """End-to-end SNR of a single variable-gain AF hop.

    Source sends unit-power symbols over a hop of SNR g1; the relay scales
    its noisy reception so its average transmit power is unity and sends
    over a hop of SNR g2.
    """
    rng = np.random.default_rng(seed)
    x = _cn(rng, n_symbols)
    y_relay = np.sqrt(g1) * x + _cn(rng, n_symbols)
    amp = np.sqrt(1.0 / (g1 + 1.0))  # E|amp*y_relay|^2 = 1
    y_dest = np.sqrt(g2) * amp * y_relay + _cn(rng, n_symbols)
    return _measured_snr(y_dest, x)


def twoway_af_snrs(g_a, g_b, n_symbols=1_000_000, seed=1234):
    """Post-cancellation SNRs at both end nodes of a two-way AF relay.

    Both end nodes transmit simultaneously to the relay; the relay
    normalizes the superposed reception and broadcasts; each end node
    subtracts its own (perfectly known) contribution.
    """
    rng = np.random.default_rng(seed)
    x_a = _cn(rng, n_symbols)
    x_b = _cn(rng, n_symbols)
    y_relay = np.sqrt(g_a) * x_a + np.sqrt(g_b) * x_b + _cn(rng, n_symbols)
    amp = np.sqrt(1.0 / (g_a + g_b + 1.0))
    y_at_a = np.sqrt(g_a) * amp * y_relay + _cn(rng, n_symbols)
    y_at_b = np.sqrt(g_b) * amp * y_relay + _cn(rng, n_symbols)
    # reciprocity: each node knows its own symbols and both channel gains
    resid_a = y_at_a - np.sqrt(g_a) * amp * np.sqrt(g_a) * x_a
    resid_b = y_at_b - np.sqrt(g_b) * amp * np.sqrt(g_b) * x_b
    return _measured_snr(resid_a, x_b), _measured_snr(resid_b, x_a)


def payload_gains(seed, samples):
    """The first `samples` payload-link power gains |h|^2 draw_block
    makes, trial by trial."""
    trials = samples // len(PAYLOAD_PAIRS)
    block = draw_block(ScenarioConfig(seed=seed), 0, trials)
    return block.fading[:, :len(PAYLOAD_PAIRS)].ravel()


def path_loss_db(freq_mhz, distance_m, coeff_db_per_decade: float):
    """ITU indoor path loss in dB, zero floor-penetration term.

    20*log10(f_MHz) + N*log10(d_m) - 28, with d clamped to MIN_DISTANCE_M.
    Frequencies and distances may be broadcastable arrays.
    """
    if not np.min(freq_mhz, initial=np.inf) > 0:  # empty passes, NaN fails
        raise ValueError("frequency must be positive")
    if coeff_db_per_decade <= 0:
        raise ValueError("path loss coefficient must be positive")
    d = np.maximum(distance_m, MIN_DISTANCE_M)
    return 20.0 * np.log10(freq_mhz) + coeff_db_per_decade * np.log10(d) \
        - 28.0

#!/usr/bin/env python3
"""The i.i.d. extreme: on-off signaling with a single transmit antenna.

Computes the exact mutual information of on-off signaling three ways
(adaptive quadrature, large-peak expansion, Monte Carlo over the on branch's
received energy), then minimizes the surrogate gap objective over the peak
power and shows the resulting two-sided capacity bracket.
"""

from widemimo import (
    RngStream,
    iid_capacity_bracket,
    m_star,
    mc_onoff_mi,
    onoff_building_blocks,
    onoff_mi_asymptotic,
    onoff_mi_quadrature,
)

R = 1
SNR = 0.01


def main():
    print(f"r={R}, snr={SNR}: on-off input sqrt(A) w.p. snr/A")
    print(f"{'A':>6} {'omega':>9} {'I quad':>12} {'I expansion':>12} {'I monte carlo':>16} {'valid':>7}")
    for amp in (5.0, 10.0, 20.0, 50.0):
        spec = onoff_building_blocks(R, SNR, amp)
        quad = onoff_mi_quadrature(R, SNR, amp)
        expansion = onoff_mi_asymptotic(R, SNR, amp)
        est = mc_onoff_mi(R, SNR, amp, 200_000, RngStream(1, int(amp)))
        print(
            f"{amp:>6.0f} {spec.omega:>9.1e} {quad:>12.4e} {expansion.value:>12.4e} "
            f"{est.mean:>10.4e}+-{est.ci99_half:.0e} {expansion.zeta_ratio:>7.2f}"
        )
    print(
        "('valid' is zeta*/(1+A): the expansion is only trustworthy when it "
        "is small, which is why it drifts from the quadrature at small A)\n"
    )

    for snr in (1e-3, 1e-4, 1e-6):
        res = m_star(R, snr)
        bracket = iid_capacity_bracket(R, snr)
        print(
            f"snr={snr:<6g} best peak A*={res.argmin_amplitude_sq:7.2f}  "
            f"gap fraction m*={res.m_star:.4f} in [{res.lower_bound:.4f}, {res.upper_bound:.4f}]  "
            f"capacity in [{bracket.lower:.3e}, {bracket.upper:.3e}] nats/use"
        )
    print(
        "\nthe fractional gap to the wideband limit shrinks only like "
        "loglog/log of 1/snr: the i.i.d. extreme approaches r*snr very slowly"
    )


if __name__ == "__main__":
    main()

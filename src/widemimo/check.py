"""Built-in oracle-vs-closed-form battery behind the ``check`` subcommand.

Each check compares one closed form against an independent route (Monte
Carlo, quadrature, series, or an algebraic identity) and prints a PASS/FAIL
line.  Everything is driven by counter-based streams, so the printed table is
byte-identical across runs and thread counts for a fixed seed.
"""

import math

import numpy as np
from scipy import integrate

from . import capacity, iid, reliability
from .channel import ChannelDims, RngStream, gamma_lower_regularized
from .oracles import (
    empirical_tail_cdf,
    mc_coherent_mi,
    mc_e0_curve,
    mc_e0_exact,
    mc_onoff_mi,
)

__all__ = ["run_check"]

_N_MC = 120_000


def _line(name: str, ok: bool, detail: str) -> str:
    return f"{'PASS' if ok else 'FAIL'}  {name:<26} {detail}"


def _checks(seed: int, threads: int):
    stream = lambda sid: RngStream(seed, sid)

    # 1. lower incomplete gamma against its finite series at integer shape
    series = 1.0 - math.exp(-1.0) * (1.0 + 1.0 + 0.5 + 1.0 / 6.0)
    value = gamma_lower_regularized(4, 1.0)
    yield _line(
        "gamma-series-anchor",
        abs(value - series) <= 1e-12,
        f"P(4,1)={value:.12g} series={series:.12g}",
    )

    # 2. lower + Poisson upper tail must give 1
    k, x = 9, 7.5
    upper = math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))
    total = gamma_lower_regularized(k, x) + upper
    yield _line(
        "gamma-tail-complement",
        abs(total - 1.0) <= 1e-12,
        f"P(9,7.5)+Q_series={total:.15g}",
    )

    # 3. gamma CDF against sampled chi-squared-type tail
    est = empirical_tail_cdf(4, 1.0, _N_MC, stream(1), threads)
    closed = gamma_lower_regularized(4, 1.0)
    yield _line(
        "gamma-vs-empirical",
        est.contains(closed),
        f"mc={est.mean:.6g} closed={closed:.6g} ci=[{est.ci99_low:.6g},{est.ci99_high:.6g}]",
    )

    # 4. coherent MI sampler against 1-D quadrature at t=r=1, snr=1
    ref, _ = integrate.quad(lambda u: math.exp(-u) * math.log1p(u), 0.0, np.inf)
    est = mc_coherent_mi(ChannelDims(1, 1, 1), 1.0, _N_MC, stream(2), threads)
    yield _line(
        "coherent-mi-anchor",
        est.contains(ref),
        f"mc={est.mean:.6g} quadrature={ref:.6g} ci_half={est.ci99_half:.3g}",
    )

    # 5. coherent expansion inside CI plus cubic-remainder budget
    dims = ChannelDims(2, 2, 1)
    snr = 0.02
    est = mc_coherent_mi(dims, snr, _N_MC, stream(3), threads)
    closed = capacity.coherent_expansion(dims, snr).total
    gap = abs(est.mean - closed)
    slack = est.ci99_half + 10.0 * snr**3
    yield _line(
        "coherent-expansion-gap",
        gap <= slack,
        f"gap={gap:.3g} slack={slack:.3g} (t=r=2, snr={snr})",
    )

    # 6. exact Gallager sampler against the -log(e E1(1)) anchor
    ref, _ = integrate.quad(lambda u: math.exp(-u) / (1.0 + u), 0.0, np.inf)
    anchor = -math.log(ref)
    est = mc_e0_exact(ChannelDims(1, 1, 1), 2.0, 1.0, _N_MC, stream(4), threads)
    yield _line(
        "e0-exact-anchor",
        est.contains(anchor),
        f"mc={est.mean:.6g} anchor={anchor:.6g} ci=[{est.ci99_low:.6g},{est.ci99_high:.6g}]",
    )

    # 7. Gallager closed-form bound direction on a rho grid
    dims = ChannelDims(2, 2, 10)
    snr_b = 0.1
    rhos = (0.25, 0.5, 0.75, 1.0)
    ests = mc_e0_curve(dims, snr_b, rhos, 40_000, stream(5), threads)
    ok = True
    worst = math.inf
    for rho, est in zip(rhos, ests):
        bound = reliability.e0_upper(dims, snr_b, rho)
        margin = bound + 3.0 * est.ci99_half - est.mean
        worst = min(worst, margin)
        ok = ok and margin >= 0.0
    yield _line("e0-bound-direction", ok, f"min margin={worst:.3g} over rho grid")

    # 8/9. on-off mutual information triple agreement at r=1, snr=0.01, A=10
    r_, snr, amp = 1, 0.01, 10.0
    quad = iid.onoff_mi_quadrature(r_, snr, amp, rel_tol=1e-10)
    est = mc_onoff_mi(r_, snr, amp, _N_MC, stream(6), threads)
    yield _line(
        "onoff-mc-vs-quadrature",
        est.contains(quad),
        f"mc={est.mean:.8g} quad={quad:.8g} ci_half={est.ci99_half:.3g}",
    )
    expansion = iid.onoff_mi_asymptotic(r_, snr, amp)
    gap = abs(quad - expansion.value)
    yield _line(
        "onoff-quad-vs-asym",
        gap <= 10.0 * snr**2,
        f"gap={gap:.3g} budget={10.0 * snr ** 2:.3g}",
    )

    # 10. surrogate minimum inside its proved sandwich
    res = iid.m_star(1, 1e-4)
    yield _line(
        "mstar-sandwich",
        res.lower_bound <= res.m_star <= res.upper_bound,
        f"m*={res.m_star:.8g} in [{res.lower_bound:.6g},{res.upper_bound:.6g}]",
    )

    # 11. rate landmarks at t=r=1, nu=1, snr=0.01
    dims = ChannelDims(1, 1, 2500)
    lm = reliability.rate_landmarks(dims, 0.01)
    refs = (0.5, math.log(13.5), 24.75 - 10.0, 24.75)
    got = (lm.r_critical, lm.r_cutoff, lm.c_block_training_lb, lm.c_block)
    ok = all(abs(g - ref) <= 1e-9 * abs(ref) for g, ref in zip(got, refs))
    yield _line(
        "rate-landmarks",
        ok,
        f"critical={lm.r_critical:.10g} cutoff={lm.r_cutoff:.10g} "
        f"train_lb={lm.c_block_training_lb:.10g} c_block={lm.c_block:.10g}",
    )

    # 12. exponent continuity where the maximizing rho leaves 1
    regime = capacity.regime_from_coherence(dims, 0.01)
    boundary = reliability.rho_one_rate(dims, regime)
    a_branch = reliability.e0_upper(dims, regime.snr_b, 1.0) - boundary
    b_point = reliability.error_exponent(dims, 0.01, boundary)
    yield _line(
        "exponent-junction",
        abs(a_branch - b_point.value) <= 1e-9,
        f"|A-branch - B-branch|={abs(a_branch - b_point.value):.3g} at R={boundary:.6g}",
    )

    # 13. on-off crossing radius satisfies its defining identity
    spec = iid.onoff_building_blocks(1, 0.01, 10.0)
    a = spec.amplitude_sq
    residual = abs(
        spec.omega * (1.0 + a) ** -1 * math.exp(a * spec.zeta_star / (1.0 + a)) - 1.0
    )
    yield _line("zeta-star-identity", residual <= 1e-10, f"residual={residual:.3g}")

    # 14. regime round trip and duty-cycle product
    dims = ChannelDims(1, 1, 10)
    regime = capacity.regime_from_coherence(dims, 0.1)
    l_back = capacity.coherence_for_regime(1, 1, regime)
    duty = abs(regime.delta * regime.snr_b - 0.1) / 0.1
    ok = abs(l_back - 10.0) / 10.0 <= 1e-9 and duty <= 1e-12
    yield _line(
        "regime-roundtrip",
        ok,
        f"l_back={l_back:.12g} duty_residual={duty:.3g}",
    )

    # 15. converse threshold always below the Gaussian-scheme threshold
    gen = RngStream(seed, 7).generator()
    ok = True
    for _ in range(20):
        alpha = float(gen.uniform(0.05, 1.0))
        eps = alpha * float(gen.uniform(0.001, 0.999))
        th = capacity.coherence_thresholds(ChannelDims(2, 3, 1), 0.05, alpha, eps)
        ok = ok and th.l_min < th.l_gaussian
    yield _line("threshold-order", ok, "l_min < l_gaussian on 20 sampled (alpha, eps)")

    # 16. stream reproducibility: same (seed, stream) twice, bit-identical
    est_a = mc_coherent_mi(ChannelDims(2, 2, 1), 0.1, 2000, stream(8), threads)
    est_b = mc_coherent_mi(ChannelDims(2, 2, 1), 0.1, 2000, stream(8), 1)
    yield _line(
        "stream-reproducibility",
        est_a.mean == est_b.mean and est_a.std_error == est_b.std_error,
        f"mean={est_a.mean:.12g} reproduced across thread counts",
    )


def run_check(seed: int = 0, threads: int = 1, out=None) -> int:
    """Run the battery; print one line per check; return a process exit code."""
    import sys

    out = out if out is not None else sys.stdout
    failures = 0
    for line in _checks(seed, threads):
        print(line, file=out)
        if line.startswith("FAIL"):
            failures += 1
    verdict = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    print(f"check summary: {verdict}", file=out)
    return 0 if failures == 0 else 1

"""Built-in oracle-vs-closed-form battery behind the ``check`` subcommand.

Each check compares one closed form against an independent route (Monte
Carlo, quadrature, series, or an algebraic identity) and returns one
verdict: the gap between the two and the slack the claim allows.  It passes
when gap <= slack, and its margin (slack - gap)/slack is the share of the
slack left, so drift shows before a failure.  A check over a grid reports
its worst verdict.  Every Monte Carlo check draws from ``RngStream``
streams and its oracle merges chunks in a fixed order, so the printed table
is byte-identical across runs and thread counts for a fixed seed.  The
Monte Carlo calls go through ``oracles._map``: at threads > 1 they run side
by side on the shared worker pool while the closed forms run on the caller.
"""

import math
import sys
from dataclasses import dataclass
from functools import partial

from scipy import special

from . import capacity, iid, oracles, reliability
from .channel import ChannelDims, RngStream, _positive_int, gamma_lower_regularized
from .oracles import empirical_tail_cdf, mc_coherent_mi, mc_e0_curve, mc_e0_exact, mc_onoff_mi

__all__ = ["run_check"]

_N_MC = 120_000


@dataclass(frozen=True)
class Verdict:
    """One check's outcome: it passes when gap <= slack."""

    gap: float
    slack: float

    @property
    def ok(self) -> bool:
        return self.gap <= self.slack

    @property
    def margin(self) -> float:
        """(slack - gap)/slack, written so that an infinite slack gives 1, not nan."""
        return 1.0 - self.gap / self.slack


def contains(est, ref: float) -> Verdict:
    """Is ref inside est's 99% interval?  The same verdict as ``est.contains(ref)``.

    The gap is |ref - mean|; the slack is the distance from the mean to the
    interval's end on ref's side, so asymmetric intervals keep their shape.
    """
    end = est.ci99_high if ref >= est.mean else est.ci99_low
    gap, slack = abs(ref - est.mean), abs(end - est.mean)
    if gap == slack and not est.contains(ref):  # rounding merged a miss into the end
        gap = math.nextafter(gap, math.inf)
    return Verdict(gap, slack)


def expansion_gap(est, closed: float, dims: ChannelDims, snr: float) -> Verdict:
    """Coherent expansion ``closed`` at (dims, snr) against the sampled coherent MI ``est``.

    The budget is the interval's half-width plus max(10, c3) snr^3 for the
    remainder the expansion drops, proved to lie between 0 and c3 snr^3 at
    every snr >= 0 (``capacity._third_order``): c3 is 3.5 at
    (t, r) = (2, 2), but 20 at (1, 3) and 40 at (1, 4).  Where c3 is below
    10 the flat 10 snr^3 stays, the budget the benchmark's gate
    (``perfbench/gate.py``) recomputes for its oracle-check rows.
    """
    c3 = max(10.0, capacity._third_order(dims.t, dims.r))
    return Verdict(abs(est.mean - closed), est.ci99_half + c3 * snr**3)


def _worst(verdicts) -> Verdict:
    """The failing verdict if there is one, else the one with the least margin."""
    return min(verdicts, key=lambda v: (v.ok, v.margin))


def _checks(seed: int, threads: int):
    """(name, verdict) for each check, in table order.

    The Monte Carlo calls, at threads = 1 each, go through ``oracles._map``;
    an estimate depends only on (seed, stream_id, n), so the table does not
    depend on ``threads``.
    """
    stream = lambda sid: RngStream(seed, sid)
    expansion_point = ChannelDims(2, 2, 1), 0.02
    curve_point = ChannelDims(2, 2, 10), 0.1, (0.25, 0.5, 0.75, 1.0)
    onoff_point = 1, 0.01, 10.0
    reproduced = ChannelDims(2, 2, 1), 0.1, 2000, stream(8)
    sampled = oracles._map(lambda call: call(), threads, (
        partial(empirical_tail_cdf, 4, 1.0, _N_MC, stream(1)),
        partial(mc_coherent_mi, ChannelDims(1, 1, 1), 1.0, _N_MC, stream(2)),
        partial(mc_coherent_mi, *expansion_point, _N_MC, stream(3)),
        partial(mc_e0_exact, ChannelDims(1, 1, 1), 2.0, 1.0, _N_MC, stream(4)),
        partial(mc_e0_curve, *curve_point, 40_000, stream(5)),
        partial(mc_onoff_mi, *onoff_point, _N_MC, stream(6)),
        # stream-reproducibility's threads = 1 leg: on a pool thread at
        # threads > 1, so its two legs run on different threads
        partial(mc_coherent_mi, *reproduced),
    ))

    # lower incomplete gamma against its finite series at integer shape
    series = 1.0 - math.exp(-1.0) * (1.0 + 1.0 + 0.5 + 1.0 / 6.0)
    yield "gamma-series-anchor", Verdict(abs(gamma_lower_regularized(4, 1.0) - series), 1e-12)

    # lower + Poisson upper tail must give 1
    k, x = 9, 7.5
    upper = math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))
    yield "gamma-tail-complement", Verdict(abs(gamma_lower_regularized(k, x) + upper - 1.0), 1e-12)

    # gamma CDF against the sampled Gamma(4, 1) tail
    yield "gamma-vs-empirical", contains(next(sampled), gamma_lower_regularized(4, 1.0))

    # coherent MI sampler against e E1(1) = int e^-u log(1+u) du at t=r=1, snr=1
    e_e1 = math.e * float(special.exp1(1.0))
    yield "coherent-mi-anchor", contains(next(sampled), e_e1)

    # coherent expansion at t=r=2, snr=0.02
    closed = capacity.coherent_expansion(*expansion_point).total
    yield "coherent-expansion-gap", expansion_gap(next(sampled), closed, *expansion_point)

    # exact Gallager sampler against -log(e E1(1)); by parts e E1(1) = int e^-u / (1+u) du too
    yield "e0-exact-anchor", contains(next(sampled), -math.log(e_e1))

    # the closed-form Gallager bound lies above the sampled one, within 3 half-widths;
    # the gap is signed, negative while the sample sits below the bound
    dims, snr_b, rhos = curve_point
    yield "e0-bound-direction", _worst(
        Verdict(est.mean - reliability.e0_upper(dims, snr_b, rho), 3.0 * est.ci99_half)
        for rho, est in zip(rhos, next(sampled))
    )

    # on-off mutual information: sampler and expansion against quadrature at r=1, snr=0.01, A=10
    r, snr, amp = onoff_point
    quad = iid.onoff_mi_quadrature(r, snr, amp, rel_tol=1e-10)
    yield "onoff-mc-vs-quadrature", contains(next(sampled), quad)
    expansion = iid.onoff_mi_asymptotic(r, snr, amp).value
    yield "onoff-quad-vs-asym", Verdict(abs(quad - expansion), 10.0 * snr**2)

    # surrogate minimum inside its proved sandwich
    res = iid.m_star(1, 1e-4)
    mid = 0.5 * (res.lower_bound + res.upper_bound)
    half = 0.5 * (res.upper_bound - res.lower_bound)
    yield "mstar-sandwich", Verdict(abs(res.m_star - mid), half)

    # rate landmarks at t=r=1, nu=1, snr=0.01
    dims = ChannelDims(1, 1, 2500)
    lm = reliability.rate_landmarks(dims, 0.01)
    refs = (0.5, math.log(13.5), 24.75 - 10.0, 24.75)
    got = (lm.r_critical, lm.r_cutoff, lm.c_block_training_lb, lm.c_block)
    yield "rate-landmarks", _worst(
        Verdict(abs(g - ref), 1e-9 * abs(ref)) for g, ref in zip(got, refs)
    )

    # exponent continuity where the maximizing rho leaves 1
    regime = capacity.regime_from_coherence(dims, 0.01)
    boundary = reliability.rho_one_rate(dims, regime)
    a_branch = reliability.e0_upper(dims, regime.snr_b, 1.0) - boundary
    b_branch = reliability.error_exponent(dims, 0.01, boundary).value
    yield "exponent-junction", Verdict(abs(a_branch - b_branch), 1e-9)

    # on-off crossing radius satisfies its defining identity
    spec = iid.onoff_building_blocks(1, 0.01, 10.0)
    a = spec.amplitude_sq
    residual = abs(spec.omega * (1.0 + a) ** -1 * math.exp(a * spec.zeta_star / (1.0 + a)) - 1.0)
    yield "zeta-star-identity", Verdict(residual, 1e-10)

    # regime round trip (relative) and duty-cycle product
    regime = capacity.regime_from_coherence(ChannelDims(1, 1, 10), 0.1)
    l_back = capacity.coherence_for_regime(1, 1, regime)
    yield "regime-roundtrip", _worst((
        Verdict(abs(l_back - 10.0) / 10.0, 1e-9),
        Verdict(abs(regime.delta * regime.snr_b - 0.1) / 0.1, 1e-12),
    ))

    # converse threshold below the Gaussian-scheme threshold on 20 sampled (alpha, eps):
    # log(l_gaussian / l_min) = 2 eps log(1/snr) > 0, so a pass at this slack implies the order
    gen = stream(7).generator()
    draws = [(float(gen.uniform(0.05, 1.0)), float(gen.uniform(0.001, 0.999))) for _ in range(20)]
    dims, snr = ChannelDims(2, 3, 1), 0.05
    verdicts = []
    for alpha, u in draws:
        th = capacity.coherence_thresholds(dims, snr, alpha, alpha * u)
        exact = 2.0 * alpha * u * math.log(1.0 / snr)
        verdicts.append(Verdict(abs(math.log(th.l_gaussian / th.l_min) - exact), 1e-9 * exact))
    yield "threshold-order", _worst(verdicts)

    # stream reproducibility: the same (seed, stream) at two thread counts, bit-identical
    est_a = mc_coherent_mi(*reproduced, threads)
    est_b = next(sampled)
    diff = abs(est_a.mean - est_b.mean) + abs(est_a.std_error - est_b.std_error)
    yield "stream-reproducibility", Verdict(diff, 0.0)


def _line(name: str, v: Verdict) -> str:
    margin = "exact" if v.slack == 0.0 else f"{v.margin:.3f}"
    return (
        f"{'PASS' if v.ok else 'FAIL'}  {name:<26} "
        f"gap={v.gap:.3g} slack={v.slack:.3g} margin={margin}"
    )


def run_check(seed: int = 0, threads: int = 1, out=None) -> int:
    """Run the battery; print one line per check; return a process exit code.

    The battery's Monte Carlo calls, each at threads = 1, go through
    ``oracles._map`` at ``threads``, and verdicts print in table order.  A
    ``threads`` other than a positive integer raises a DomainError first.
    """
    threads = _positive_int("threads", threads)
    out = out if out is not None else sys.stdout
    failures = 0
    for name, verdict in _checks(seed, threads):
        print(_line(name, verdict), file=out)
        failures += not verdict.ok
    summary = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    print(f"check summary: {summary}", file=out)
    return 0 if failures == 0 else 1

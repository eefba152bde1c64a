"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the table.  Every
Monte Carlo comparison uses the fixed suite seed, so each criterion is a
deterministic computation.

Two criteria are known-red and are kept that way on purpose (see the
assertion messages and the repository notes): the asymptotic-target checks in
criteria 6 and 7 pin parameter points that sit outside the asymptotic regime
of the formulas they test, by amounts no correct implementation can close.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, optimize

from conftest import SEED, cli_env
from widemimo import (
    ChannelDims,
    RngStream,
    coherence_for_regime,
    coherence_thresholds,
    coherent_expansion,
    diversity_low_snr,
    e0_upper,
    empirical_tail_cdf,
    error_exponent,
    gamma_lower_regularized,
    gaussian_lower_bound,
    m_star,
    mc_coherent_mi,
    mc_e0_curve,
    mc_e0_exact,
    mc_onoff_mi,
    onoff_mi_asymptotic,
    onoff_mi_quadrature,
    rate_landmarks,
    regime_from_coherence,
    regime_from_nu,
    rho_star,
    surrogate_m,
)
from widemimo.reliability import rho_one_rate

def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:>2} [{name}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_01_coherent_expansion_vs_oracle():
    cells = []
    ratio_rows = {}
    for idx, (t, r) in enumerate(((1, 1), (2, 2), (2, 3))):
        ratios = []
        for jdx, snr in enumerate((0.05, 0.02, 0.01)):
            est = mc_coherent_mi(
                ChannelDims(t, r, 1), snr, 10**6, RngStream(SEED, 1000 + 10 * idx + jdx)
            )
            closed = coherent_expansion(ChannelDims(t, r, 1), snr).total
            gap = abs(est.mean - closed)
            ok = gap <= est.ci99_half + 10 * snr**3
            cells.append(((t, r, snr), ok, gap, est.ci99_half))
            # noise-budgeted excess: the remainder-order signal once the CI
            # share of the gap is removed (raw gap is dominated by MC noise
            # at the smallest snr)
            ratios.append(max(0.0, gap - est.ci99_half) / snr**3)
        ratio_rows[(t, r)] = ratios
    all_within = all(ok for _, ok, _, _ in cells)
    # +2.0 allows one-cell CI exceedances (prob ~1% each); a wrong remainder
    # order would blow the ratio up by orders of magnitude across the grid
    trend_ok = all(
        b <= a + 2.0 for ratios in ratio_rows.values() for a, b in zip(ratios, ratios[1:])
    )
    detail = (
        f"{sum(ok for _, ok, _, _ in cells)}/9 cells within CI + 10 snr^3; "
        f"excess ratios {['%.2f' % x for v in ratio_rows.values() for x in v]}"
    )
    assert _report(1, "coherent expansion vs oracle", all_within and trend_ok, detail), [
        c for c in cells if not c[1]
    ]


def test_criterion_02_closed_form_anchors():
    # oracle values recomputed by 1-D quadrature, then frozen
    ref_mi, _ = integrate.quad(lambda u: math.exp(-u) * math.log1p(u), 0, np.inf)
    assert ref_mi == pytest.approx(0.5963473623231939, rel=1e-10)
    est_mi = mc_coherent_mi(ChannelDims(1, 1, 1), 1.0, 10**6, RngStream(SEED, 1100))
    ok_mi = est_mi.contains(ref_mi)

    ref_mean, _ = integrate.quad(lambda u: math.exp(-u) / (1 + u), 0, np.inf)
    ref_e0 = -math.log(ref_mean)
    assert ref_e0 == pytest.approx(0.516931959002046, rel=1e-10)
    est_e0 = mc_e0_exact(ChannelDims(1, 1, 1), 2.0, 1.0, 10**6, RngStream(SEED, 1101))
    ok_e0 = est_e0.contains(ref_e0)

    detail = (
        f"mi: mc={est_mi.mean:.6f} vs {ref_mi:.6f} (ci_half={est_mi.ci99_half:.2g}); "
        f"e0: mc={est_e0.mean:.6f} vs {ref_e0:.6f} (ci_half={est_e0.ci99_half:.2g})"
    )
    assert _report(2, "closed-form sanity anchors", ok_mi and ok_e0, detail)


def test_criterion_03_gallager_bound_direction():
    rhos = np.linspace(0.0, 1.0, 21)
    worst = math.inf
    failures = []
    sid = 1200
    for t, r in ((1, 1), (2, 2), (2, 3)):
        for l in (1, 10):
            for snr_b in (0.1, 2.0):
                dims = ChannelDims(t, r, l)
                ests = mc_e0_curve(dims, snr_b, rhos, 20_000, RngStream(SEED, sid))
                sid += 1
                for rho, est in zip(rhos, ests):
                    bound = e0_upper(dims, snr_b, float(rho))
                    margin = bound + 3 * est.ci99_half - est.mean
                    worst = min(worst, margin)
                    if margin < 0:
                        failures.append((t, r, l, snr_b, float(rho), margin))
    detail = f"12 cells x 21 rho points, min margin={worst:.3g}"
    assert _report(3, "Gallager bound direction", not failures, detail), failures


def test_criterion_04_exponent_structure():
    dims = ChannelDims(1, 1, 2500)
    snr = 0.01
    regime = regime_from_coherence(dims, snr)

    lm = rate_landmarks(dims, snr)
    refs = {
        "r_critical": 0.5,
        "r_cutoff": math.log(13.5),
        "c_block_training_lb": 14.75,
        "c_block": 24.75,
    }
    landmarks_ok = (
        abs(lm.r_critical - refs["r_critical"]) <= 1e-9 * refs["r_critical"]
        and abs(lm.r_cutoff - refs["r_cutoff"]) <= 1e-9 * refs["r_cutoff"]
        and abs(lm.c_block_training_lb - refs["c_block_training_lb"])
        <= 1e-9 * refs["c_block_training_lb"]
        and abs(lm.c_block - refs["c_block"]) <= 1e-9 * refs["c_block"]
        and lm.r_critical < lm.r_cutoff < lm.c_block_training_lb < lm.c_block
    )

    rates = np.linspace(0.0, 1.2 * lm.c_block, 200)
    values = [error_exponent(dims, snr, float(x)).value for x in rates]
    monotone_ok = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    kappa = dims.l * regime.snr_b / dims.t
    junction = rho_one_rate(dims, regime)
    via_a = e0_upper(dims, regime.snr_b, 1.0) - junction
    via_b = error_exponent(dims, snr, junction).value
    junction_ok = abs(via_a - via_b) <= 1e-9

    argmax_ok = True
    grid = np.linspace(0.0, 1.0, 10_001)
    for rate in (1.0, 2.5, 5.0, 10.0, 14.0):
        objective = np.log1p(kappa * grid / (1 + grid)) - grid * rate
        best = float(grid[int(np.argmax(objective))])
        argmax_ok = argmax_ok and abs(rho_star(dims, regime, rate) - best) <= 1e-4

    ok = landmarks_ok and monotone_ok and junction_ok and argmax_ok
    detail = (
        f"landmarks={landmarks_ok} monotone={monotone_ok} "
        f"junction_gap={abs(via_a - via_b):.2g} argmax={argmax_ok}"
    )
    assert _report(4, "exponent curve structure", ok, detail)


def test_criterion_05_outage_oracle():
    failures = []
    sid = 1350
    for k in (1, 2, 4, 9):
        for x in (0.1, 1.0, float(k)):
            est = empirical_tail_cdf(k, x, 10**6, RngStream(SEED, sid))
            sid += 1
            closed = gamma_lower_regularized(k, x)
            if not est.contains(closed):
                failures.append((k, x, est.mean, closed, est.ci99_half))
    series = 1.0 - math.exp(-1.0) * (1 + 1 + 0.5 + 1 / 6)
    anchor_ok = abs(gamma_lower_regularized(4, 1.0) - 0.018988) <= 1e-6
    anchor_ok = anchor_ok and abs(gamma_lower_regularized(4, 1.0) - series) <= 1e-14
    detail = f"{12 - len(failures)}/12 CDF cells inside binomial CI; P(4,1) anchor ok={anchor_ok}"
    assert _report(5, "outage tail oracle", not failures and anchor_ok, detail), failures


def test_criterion_06_diversity_slopes():
    tolerance = 0.15
    grid = [1e-2, 10**-2.5, 1e-3]
    rows = []
    for t_r in (1, 2):
        for nu in (0.5, 1.0):
            mn = min(1.0, nu)
            kappa = 0.5 * (mn + 2 * nu)
            dims = ChannelDims(t_r, t_r, 100)
            est = diversity_low_snr(dims, nu, kappa, snr_grid=grid)
            rows.append((t_r, nu, "bound", est.bound_fit.slope, est.order))
            rows.append((t_r, nu, "outage", est.outage_fit.slope, est.order))
    bad = [(c, n, kind, s, d) for c, n, kind, s, d in rows if abs(s - d) > tolerance]
    detail = "; ".join(
        f"t=r={c} nu={n} {kind}: slope={s:.3f} vs d_L={d:g}" for c, n, kind, s, d in rows
    )
    ok = _report(6, "diversity slope", not bad, detail)
    assert ok, (
        "slopes outside +-0.15 of the closed-form order: "
        + ", ".join(f"(t=r={c}, nu={n}, {kind}: {s:.3f} vs {d:g})" for c, n, kind, s, d in bad)
        + " -- the snr grid [1e-3, 1e-2] is pre-asymptotic for rt=4: the "
        "training-loss factor snr_b/f* and the saturating log in the exponent "
        "contribute O(sqrt(snr)) slope corrections that exceed the budget; "
        "no faithful evaluation of these formulas can pass at these points"
    )


def test_criterion_07_onoff_triple_agreement():
    mc_ok, asym_rows = [], []
    sid = 1400
    for r in (1, 2):
        for snr in (1e-2, 1e-3):
            for amp in (10.0, 20.0, 50.0):
                quad = onoff_mi_quadrature(r, snr, amp, rel_tol=1e-10)
                est = mc_onoff_mi(r, snr, amp, 10**6, RngStream(SEED, sid))
                sid += 1
                mc_ok.append(((r, snr, amp), est.contains(quad)))
                gap = abs(quad - onoff_mi_asymptotic(r, snr, amp).value)
                asym_rows.append(((r, snr, amp), gap, 10 * snr**2))
    n_mc = sum(ok for _, ok in mc_ok)
    asym_bad = [(cell, gap, budget) for cell, gap, budget in asym_rows if gap > budget]
    detail = (
        f"quadrature-vs-MC within 99% CI: {n_mc}/12; "
        f"quadrature-vs-asymptotic within 10 snr^2: {12 - len(asym_bad)}/12"
    )
    ok = _report(7, "on-off triple agreement", n_mc == 12 and not asym_bad, detail)
    assert ok, (
        "asymptotic-form gaps above the 10 snr^2 budget: "
        + ", ".join(f"(r={c[0]}, snr={c[1]:g}, A={c[2]:g}: gap={g:.2e} > {b:.0e})"
                    for c, g, b in asym_bad)
        + " -- the dropped remainder of the large-peak expansion is "
        "Theta(snr^(1+1/A) * zeta*/(1+A)), which is far larger than snr^2 at "
        "these fixed peak powers (for r=2 the gap exceeds the budget ~30x), so "
        "the budget, not the implementation, is what fails. "
        f"Quadrature-vs-MC legs outside their CI: {[c for c, okc in mc_ok if not okc]} "
        "-- the sampler takes each branch's hinge term exactly and draws the "
        "remainder of both branches on the on branch, whose draws reach the "
        "density-crossing region where the remainder lives; over seeds 0-199 "
        "at n = 1e5 on these 12 cells its 99% interval missed 16 of 2400 "
        "(cell, seed) pairs (0.7%), so a miss here is seed luck at about the "
        "nominal rate, not a bias"
    )


def test_criterion_08_surrogate_sandwich():
    failures = []
    for r in (1, 2, 4):
        for snr in (1e-3, 1e-4, 1e-6):
            res = m_star(r, snr)
            if not res.lower_bound <= res.m_star <= res.upper_bound:
                failures.append((r, snr, res))
    ref = m_star(1, 1e-4)
    bracket_ok = (
        ref.lower_bound == pytest.approx(0.24107, abs=5e-5)
        and ref.upper_bound == pytest.approx(0.64387, abs=7e-5)
    )
    # independent oracle: dense grid + bounded local refinement
    big_l = math.log(1e4)
    grid = np.linspace(big_l, big_l**3, 400_001)
    vals = np.log(grid) / grid + grid ** (-2.0 / grid) * (1e-4) ** (1.0 / grid)
    best = float(grid[int(np.argmin(vals))])
    refined = optimize.minimize_scalar(
        lambda a: surrogate_m(1, 1e-4, a),
        bounds=(max(big_l, best - 0.01), best + 0.01),
        method="bounded",
        options={"xatol": 1e-12},
    )
    oracle_ok = abs(ref.m_star - float(refined.fun)) <= 1e-6
    detail = (
        f"9/9 cells inside sandwich: {not failures}; "
        f"reference m*={ref.m_star:.6f} vs oracle {float(refined.fun):.6f}, "
        f"bracket=[{ref.lower_bound:.5f},{ref.upper_bound:.5f}]"
    )
    assert _report(
        8, "surrogate minimum sandwich", not failures and bracket_ok and oracle_ok, detail
    ), failures


def test_criterion_09_capacity_identities():
    gen = RngStream(SEED, 1500).generator()

    roundtrip_ok = True
    for _ in range(25):
        t = int(gen.integers(1, 5))
        r = int(gen.integers(1, 5))
        l = int(gen.integers(1, 10_000))
        snr = float(gen.uniform(1e-4, 0.5))
        regime = regime_from_coherence(ChannelDims(t, r, l), snr)
        roundtrip_ok = roundtrip_ok and abs(coherence_for_regime(t, r, regime) - l) <= 1e-9 * l

    duty_ok = True
    for _ in range(50):
        snr = float(gen.uniform(1e-5, 0.9))
        nu = float(gen.uniform(0.05, 3.0))
        regime = regime_from_nu(snr, nu)
        duty_ok = duty_ok and abs(regime.delta * regime.snr_b - snr) <= 1e-12 * snr

    ls = np.unique(np.geomspace(2, 10**5, 20).astype(int))
    lb = [gaussian_lower_bound(ChannelDims(2, 3, int(l)), 0.05) for l in ls]
    monotone_ok = all(b > a for a, b in zip(lb, lb[1:]))

    threshold_ok = True
    for _ in range(50):
        alpha = float(gen.uniform(0.01, 1.0))
        eps = alpha * float(gen.uniform(1e-3, 0.999))
        th = coherence_thresholds(ChannelDims(2, 1, 1), 0.07, alpha, eps)
        threshold_ok = threshold_ok and th.l_min < th.l_gaussian

    ok = roundtrip_ok and duty_ok and monotone_ok and threshold_ok
    detail = (
        f"roundtrip={roundtrip_ok} duty_product={duty_ok} "
        f"lb_monotone={monotone_ok} threshold_order={threshold_ok}"
    )
    assert _report(9, "capacity-module identities", ok, detail)


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "quantity = oracle-check\nt = 1, 2\nr = 1, 2\nl = 1\nsnr = 0.05\n"
        "n_samples = 20000\nseed = 9\n",
        encoding="utf-8",
    )

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "widemimo", *args],
            cwd=tmp_path,
            env=cli_env(),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    cli("sweep", str(cfg), "--out", "s1.csv", "--threads", "1")
    cli("sweep", str(cfg), "--out", "s2.csv", "--threads", "4")
    cli("sweep", str(cfg), "--out", "s3.csv", "--threads", "4")
    s1 = (tmp_path / "s1.csv").read_bytes()
    sweep_ok = s1 == (tmp_path / "s2.csv").read_bytes() == (tmp_path / "s3.csv").read_bytes()

    c1 = cli("check", "--seed", "2", "--threads", "1")
    c2 = cli("check", "--seed", "2", "--threads", "4")
    c3 = cli("check", "--seed", "2", "--threads", "4")
    check_ok = c1 == c2 == c3

    detail = f"sweep byte-identical={sweep_ok}; check byte-identical={check_ok}"
    assert _report(10, "CLI determinism", sweep_ok and check_ok, detail)

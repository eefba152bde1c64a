import math

import numpy as np
import pytest
from scipy import integrate

from conftest import SEED
from widemimo import (
    ChannelDims,
    DomainError,
    RngStream,
    coherent_expansion,
    e0_upper,
    empirical_tail_cdf,
    gamma_lower_regularized,
    mc_coherent_mi,
    mc_e0_curve,
    mc_e0_exact,
    mc_onoff_mi,
    onoff_mi_quadrature,
    slope_fit,
)
from widemimo.channel import _sample_cn
from widemimo.oracles import _wishart_logdet

DIMS11 = ChannelDims(1, 1, 1)


class TestCoherentMi:
    def test_zero_snr_zero_variance(self):
        est = mc_coherent_mi(DIMS11, 0.0, 2000, RngStream(SEED, 200))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_quadrature_anchor(self):
        # E[log(1 + X)], X ~ Exp(1), by 1-D quadrature: e E1(1) ~ 0.59634
        ref, err = integrate.quad(lambda u: math.exp(-u) * math.log1p(u), 0, np.inf)
        assert err < 1e-10
        assert ref == pytest.approx(0.5963473623231939, rel=1e-10)
        est = mc_coherent_mi(DIMS11, 1.0, 200_000, RngStream(SEED, 201))
        assert est.contains(ref)

    def test_tracks_expansion(self):
        # (3, 3) takes the matrix branch of the Bartlett sampler
        for t, r, sid in ((2, 2, 202), (3, 3, 205)):
            dims = ChannelDims(t, r, 1)
            est = mc_coherent_mi(dims, 0.01, 200_000, RngStream(SEED, sid))
            closed = coherent_expansion(dims, 0.01).total
            assert abs(est.mean - closed) <= est.ci99_half + 10 * 0.01**3, (t, r)

    def test_thread_invariance(self):
        a = mc_coherent_mi(ChannelDims(2, 3, 1), 0.1, 70_000, RngStream(SEED, 203), threads=1)
        b = mc_coherent_mi(ChannelDims(2, 3, 1), 0.1, 70_000, RngStream(SEED, 203), threads=4)
        assert a == b

    def test_std_error_scaling(self):
        a = mc_coherent_mi(DIMS11, 0.5, 100_000, RngStream(SEED, 204))
        b = mc_coherent_mi(DIMS11, 0.5, 200_000, RngStream(SEED, 204))
        assert b.std_error == pytest.approx(a.std_error / math.sqrt(2), rel=0.1)


class TestE0Exact:
    def test_rho_zero(self):
        est = mc_e0_exact(DIMS11, 1.0, 0.0, 2000, RngStream(SEED, 210))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_quadrature_anchor(self):
        # -log E[(1 + X)^-1], X ~ Exp(1): -log(e E1(1)) ~ 0.51693
        ref, err = integrate.quad(lambda u: math.exp(-u) / (1 + u), 0, np.inf)
        assert err < 1e-8
        anchor = -math.log(ref)
        assert anchor == pytest.approx(0.516931959002046, rel=1e-10)
        est = mc_e0_exact(DIMS11, 2.0, 1.0, 200_000, RngStream(SEED, 211))
        assert est.estimator == "log-of-mean"
        assert est.contains(anchor)

    def test_bootstrap_widens_when_large(self):
        small = mc_e0_exact(ChannelDims(1, 1, 4), 0.5, 0.8, 50_000, RngStream(SEED, 212))
        large = mc_e0_exact(ChannelDims(1, 1, 4), 0.5, 0.8, 100_000, RngStream(SEED, 212))
        # n >= 1e5 activates the bootstrap; the interval can only widen past delta
        assert large.ci99_half >= _Z99_HALF(large) - 1e-15
        assert small.ci99_half == pytest.approx(_Z99_HALF(small), rel=1e-12)

    def test_curve_matches_pointwise_law(self):
        dims = ChannelDims(2, 2, 10)
        curve = mc_e0_curve(dims, 0.1, [0.0, 0.5, 1.0], 20_000, RngStream(SEED, 213))
        assert curve[0].mean == 0.0
        single = mc_e0_exact(dims, 0.1, 0.5, 20_000, RngStream(SEED, 213))
        assert curve[1].mean == pytest.approx(single.mean, rel=1e-12)

    def test_below_closed_form_bound(self):
        dims = ChannelDims(2, 3, 10)
        for rho, est in zip(
            (0.25, 1.0),
            mc_e0_curve(dims, 0.3, (0.25, 1.0), 30_000, RngStream(SEED, 214)),
        ):
            assert est.mean <= e0_upper(dims, 0.3, rho) + 3 * est.ci99_half


def _Z99_HALF(est):
    return 2.5758293035489004 * est.std_error


class TestOnOffMi:
    def test_zero_snr(self):
        est = mc_onoff_mi(2, 0.0, 10.0, 20_000, RngStream(SEED, 220))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_agrees_with_quadrature_r1(self):
        est = mc_onoff_mi(1, 0.01, 10.0, 200_000, RngStream(SEED, 221))
        assert est.contains(onoff_mi_quadrature(1, 0.01, 10.0))

    def test_agrees_with_quadrature_r2(self):
        # r > 1 exercises the radial weight beyond the exponential
        est = mc_onoff_mi(2, 0.01, 20.0, 200_000, RngStream(SEED, 222))
        assert est.contains(onoff_mi_quadrature(2, 0.01, 20.0))

    def test_std_error_scaling(self):
        # overlap-heavy operating point: branch variances are stable, so the
        # reported SE follows the 1/sqrt(n) law (peakier combos need far more
        # samples before the rare-tail variance estimate settles)
        a = mc_onoff_mi(1, 0.1, 2.0, 100_000, RngStream(SEED, 223))
        b = mc_onoff_mi(1, 0.1, 2.0, 200_000, RngStream(SEED, 223))
        assert b.std_error == pytest.approx(a.std_error / math.sqrt(2), rel=0.1)


class TestTailCdf:
    def test_zero_threshold(self):
        est = empirical_tail_cdf(3, 0.0, 2000, RngStream(SEED, 230))
        assert est.mean == 0.0

    def test_matches_gamma_cdf(self):
        est = empirical_tail_cdf(4, 1.0, 200_000, RngStream(SEED, 231))
        assert est.contains(gamma_lower_regularized(4, 1.0))

    def test_exponential_case(self):
        est = empirical_tail_cdf(1, 0.1, 200_000, RngStream(SEED, 232))
        assert est.contains(1.0 - math.exp(-0.1))


def _two_sample_z(a, b):
    """z statistic for equal means of two independent samples."""
    return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))


class TestSamplerLaws:
    """The sufficient-statistic samplers against the explicit constructions."""

    @pytest.mark.parametrize("t, r", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_bartlett_logdet_matches_explicit_gram(self, t, r):
        n, c = 200_000, 0.7
        h = _sample_cn(RngStream(SEED, 250).generator(), (n, r, t))
        _, explicit = np.linalg.slogdet(np.eye(t) + c * np.einsum("nij,nik->njk", h.conj(), h))
        bartlett = _wishart_logdet(RngStream(SEED, 251).generator(), n, t, r, [c])[:, 0]
        assert abs(_two_sample_z(bartlett, explicit)) <= 4.0
        assert abs(_two_sample_z(bartlett**2, explicit**2)) <= 4.0

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_gamma_matches_cn_energy(self, k):
        n = 200_000
        z = _sample_cn(RngStream(SEED, 252).generator(), (n, k))
        energy = (z.real**2 + z.imag**2).sum(axis=1)
        gamma = RngStream(SEED, 253).generator().standard_gamma(k, n)
        assert abs(_two_sample_z(gamma, energy)) <= 4.0
        assert abs(_two_sample_z(gamma**2, energy**2)) <= 4.0
        # the oracle's CDF at x = k against the explicit fraction below k
        est = empirical_tail_cdf(k, float(k), n, RngStream(SEED, 254))
        p_explicit = float((energy < k).mean())
        se = math.sqrt(est.std_error**2 + p_explicit * (1.0 - p_explicit) / n)
        assert abs(est.mean - p_explicit) <= 4.0 * se


class TestSlopeFit:
    def test_two_points(self):
        fit = slope_fit([(0.0, 0.0), (1.0, 2.0)])
        assert fit.slope == pytest.approx(2.0) and fit.intercept == pytest.approx(0.0)

    def test_exact_line(self):
        pts = [(x, 3.0 * x - 1.0) for x in (-2.0, -0.5, 0.1, 1.3, 4.0)]
        fit = slope_fit(pts)
        assert fit.slope == pytest.approx(3.0, rel=1e-12)
        assert fit.intercept == pytest.approx(-1.0, rel=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_needs_two_distinct_abscissae(self):
        with pytest.raises(DomainError):
            slope_fit([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(DomainError):
            slope_fit([(1.0, 2.0)])


class TestDeterminism:
    def test_same_stream_same_bits(self):
        a = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 240))
        b = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 240))
        assert a == b

    def test_distinct_streams_differ(self):
        a = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 241))
        b = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 242))
        assert a.mean != b.mean

import gc
import math
import weakref

import numpy as np
import pytest
from scipy import integrate, special, stats

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
from widemimo.oracles import (
    _bootstrap_mean_quantiles,
    _e0_weights,
    _gamma_above,
    _gamma_below,
    _log_of_mean_estimate,
    _mean_excess,
    _wishart_logdet,
)

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


def _quantiles(weights):
    return _bootstrap_mean_quantiles(weights, weights.std(ddof=1) / math.sqrt(len(weights)))


class TestBootstrapSaddlepoint:
    """The B = infinity bootstrap quantiles of a mean, against exact and resampled laws."""

    # 2e-5 puts more than 0.5% of the bootstrap law on the all-zero resample
    @pytest.mark.parametrize("p_hat", [2e-5, 0.01, 0.3])
    def test_bernoulli_weights_match_binomial(self, p_hat):
        # a resampled Bernoulli mean is exactly Binomial(n, p_hat) / n
        n = 100_000
        weights = np.zeros(n)
        weights[: round(p_hat * n)] = 1.0
        exact = stats.binom.ppf([0.005, 0.995], n, p_hat) / n
        assert np.abs(np.array(_quantiles(weights)) - exact).max() <= 2.0 / n

    def test_atom_at_zero_leaves_the_interval_unbounded(self):
        # two nonzero weights in 1e5: the all-zero resample, whose -log is
        # +inf, holds e^-2 of the bootstrap law
        weights = np.zeros(100_000)
        weights[:2] = 1.0
        est = _log_of_mean_estimate(weights)
        assert est.mean == -math.log(2e-5) and est.ci99_high == math.inf
        assert est.ci99_low <= est.mean - _Z99_HALF(est)

    def test_three_point_weights_match_multinomial(self):
        # Values 0, 1, pi: the resampled mean takes ~80k distinct values, so
        # its law is near-continuous, and is exact by enumerating the
        # multinomial counts.  Dropping the Lugannani-Rice correction term
        # moves the quantiles by 0.023-0.038 se; the helper is within 0.01.
        counts, values = np.array([340, 40, 20]), np.array([0.0, 1.0, math.pi])
        n = int(counts.sum())
        weights = np.repeat(values, counts)
        i, j = (a.ravel() for a in np.meshgrid(np.arange(n + 1), np.arange(n + 1)))
        i, j = i[i + j <= n], j[i + j <= n]
        log_pmf = stats.multinomial.logpmf(np.stack([n - i - j, i, j], axis=1), n, counts / n)
        order = np.argsort(i * values[1] + j * values[2])
        means = (i * values[1] + j * values[2])[order] / n
        cdf = np.cumsum(np.exp(log_pmf[order]))
        exact = means[np.searchsorted(cdf, [0.005, 0.995])]
        se = weights.std() / math.sqrt(n)
        assert np.abs(np.array(_quantiles(weights)) - exact).max() <= 0.015 * se

    def test_heavy_weights_match_resampling(self):
        # l = 1000 weights: most of the mean sits in a few samples near 1
        n, resamples = 10_000, 4000
        weights = _e0_weights(ChannelDims(1, 1, 1000), 1.0, [1.0], n, RngStream(SEED, 260), 1)[:, 0]
        gen = RngStream(SEED, 261).generator()
        means = np.sort([weights[gen.integers(0, n, n)].mean() for _ in range(resamples)])
        for alpha, quantile in zip((0.005, 0.995), _quantiles(weights)):
            # resampled means below the true quantile ~ Binomial(resamples, alpha)
            k_lo, k_hi = stats.binom.ppf([0.0005, 0.9995], resamples, alpha).astype(int)
            assert means[k_lo - 1] <= quantile <= means[k_hi], alpha

    def test_releases_the_sample_without_garbage_collection(self):
        # the solver keeps its function in a reference cycle; the sample must
        # not hang off it, or each n=1e6 call would hold ~24 MB until a collection
        weights = RngStream(SEED, 264).generator().random(100_000)
        ref = weakref.ref(weights)
        gc.disable()
        try:
            _quantiles(weights)
            del weights
            assert ref() is None
        finally:
            gc.enable()

    def test_thread_invariance_with_bootstrap(self):
        dims = ChannelDims(2, 2, 10)
        a = mc_e0_exact(dims, 0.1, 1.0, 100_000, RngStream(SEED, 262), threads=1)
        b = mc_e0_exact(dims, 0.1, 1.0, 100_000, RngStream(SEED, 262), threads=3)
        assert a == b

    def test_point_estimate_from_weights(self):
        dims, n = ChannelDims(2, 2, 10), 100_000
        weights = _e0_weights(dims, 0.1, [0.5], n, RngStream(SEED, 263), 1)[:, 0]
        est = mc_e0_exact(dims, 0.1, 0.5, n, RngStream(SEED, 263))
        mean = float(weights.mean())
        se = float(weights.std(ddof=1) / math.sqrt(n)) / mean
        assert est.mean == -math.log(mean) and est.std_error == se and est.n_samples == n
        # the reported interval contains the delta interval
        assert est.ci99_low <= est.mean - _Z99_HALF(est)
        assert est.ci99_high >= est.mean + _Z99_HALF(est)


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

    def test_thread_invariance(self):
        # n_off / 8 > 2^16: the tail stratum spans two chunks, the bulk eight
        a = mc_onoff_mi(2, 1e-3, 20.0, 1_100_000, RngStream(SEED, 224), threads=1)
        b = mc_onoff_mi(2, 1e-3, 20.0, 1_100_000, RngStream(SEED, 224), threads=3)
        assert a == b

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_strata_sit_on_their_side_of_the_cut(self, r):
        cut = 2.0 * r + 3.0
        gen = RngStream(SEED, 225).generator()
        bulk = _gamma_below(r, cut, gamma_lower_regularized(r, cut))(gen, 50_000)
        tail = _gamma_above(r, cut)(gen, 50_000)
        assert len(bulk) == len(tail) == 50_000
        assert bulk.max() <= cut < tail.min()

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_strata_laws(self, r):
        # P(z > cut + x | z > cut) = Q(r, cut + x)/Q(r, cut) for the shifted
        # mixture, and P(z <= x | z <= cut) = P(r, x)/P(r, cut) for the bulk
        n, cut = 200_000, 6.0
        tail = _gamma_above(r, cut)(RngStream(SEED, 226).generator(), n)
        bulk = _gamma_below(r, cut, special.gammainc(r, cut))(RngStream(SEED, 227).generator(), n)
        for x in (0.25, 1.0, 3.0):
            for draws, z, exact in (
                (tail, cut + x, special.gammaincc(r, cut + x) / special.gammaincc(r, cut)),
                (bulk, x, 1.0 - special.gammainc(r, x) / special.gammainc(r, cut)),
            ):
                frac = float((draws > z).mean())
                assert abs(frac - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n), (z, exact)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_mean_excess_matches_quadrature(self, r):
        # the exact hinge mean E[max(z - x, 0)], z ~ Gamma(r, 1)
        for x in (0.5, 3.0, 12.0):
            ref, _ = integrate.quad(
                lambda z: (z - x) * stats.gamma.pdf(z, r), x, math.inf, epsabs=0.0, epsrel=1e-12
            )
            assert _mean_excess(r, x) == pytest.approx(ref, rel=1e-9), x
        assert _mean_excess(r, -2.0) == r + 2.0

    @pytest.mark.parametrize(
        "r, snr, a",
        [
            (3, 0.99, 1.0),  # snr close to A: the weighted crossing radius is < 0
            (1, 9.99, 10.0),
            (2, 0.5, 2.0),  # crossing not rare: one plain off stratum
            (3, 1e-3, 50.0),  # three-component tail mixture
            (1, 1e-12, 1e4),  # tail weight Q ~ 1e-12
        ],
    )
    def test_edge_points_finite(self, r, snr, a):
        est = mc_onoff_mi(r, snr, a, 10_001, RngStream(SEED, 228))
        assert est.n_samples == 10_001
        assert all(map(math.isfinite, (est.mean, est.std_error, est.ci99_low, est.ci99_high)))
        assert est.ci99_low <= est.mean <= est.ci99_high


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


# A bound check written as the positive condition rejects nan with its own message.
NAN_CALLS = {
    "mc_coherent_mi": (
        lambda rng: mc_coherent_mi(DIMS11, math.nan, 1000, rng), "snr must be >= 0, got nan"
    ),
    "mc_e0_exact": (
        lambda rng: mc_e0_exact(DIMS11, math.nan, 0.5, 1000, rng), "snr_b must be > 0, got nan"
    ),
    "mc_e0_curve": (
        lambda rng: mc_e0_curve(DIMS11, math.nan, [0.5], 1000, rng), "snr_b must be > 0, got nan"
    ),
    "mc_onoff_mi": (
        lambda rng: mc_onoff_mi(1, math.nan, 10.0, 10_000, rng),
        "need amplitude_sq > snr >= 0, got A=10.0, snr=nan",
    ),
    "empirical_tail_cdf": (
        lambda rng: empirical_tail_cdf(1, math.nan, 1000, rng), "x must be >= 0, got nan"
    ),
}


@pytest.mark.parametrize("name", list(NAN_CALLS))
def test_nan_is_a_domain_error(name):
    call, message = NAN_CALLS[name]
    with pytest.raises(DomainError) as err:
        call(RngStream(SEED, 290))
    assert str(err.value) == message

import math

import numpy as np
import pytest
from scipy import special

from conftest import SEED
from widemimo import (
    ChannelDims,
    DimensionError,
    DomainError,
    RngStream,
    TrainingInfeasibleError,
    empirical_tail_cdf,
    energy_per_nat,
    gamma_lower_regularized,
    gamma_upper_regularized,
    mc_onoff_mi,
    onoff_building_blocks,
    sample_channel_matrix,
)


def test_dims_validation():
    ChannelDims(1, 1, 1)
    with pytest.raises(DimensionError):
        ChannelDims(0, 1, 1)
    with pytest.raises(DimensionError):
        ChannelDims(2, 2, 2.5)
    with pytest.raises(DimensionError):
        ChannelDims(2, True, 2)
    with pytest.raises(TrainingInfeasibleError):
        ChannelDims(2, 2, 2).require_training()
    ChannelDims(2, 2, 3).require_training()


# Every count argument (r, or the tail's k) goes through one check: numpy
# integers count, bools and non-positive values do not.
COUNT_CALLS = {
    "energy_per_nat": lambda r: energy_per_nat(r, 0.01, 0.002),
    "onoff_building_blocks": lambda r: onoff_building_blocks(r, 0.01, 10.0),
    "mc_onoff_mi": lambda r: mc_onoff_mi(r, 0.01, 10.0, 10_000, RngStream(SEED, 140)),
    "empirical_tail_cdf": lambda k: empirical_tail_cdf(k, 1.0, 1000, RngStream(SEED, 141)),
    "gamma_lower_regularized": lambda k: gamma_lower_regularized(k, 1.0),
}


@pytest.mark.parametrize("name", list(COUNT_CALLS))
def test_count_arguments_share_one_check(name):
    call = COUNT_CALLS[name]
    assert call(np.int64(2)) == call(2)
    for bad in (True, 0):
        with pytest.raises(DomainError, match=f"must be a positive integer, got {bad!r}$"):
            call(bad)


class TestSampler:
    def test_unit_second_moment(self):
        # E|h|^2 = 1 by construction
        h = sample_channel_matrix(ChannelDims(1, 1, 1), RngStream(SEED, 100), count=10**6)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.004

    def test_circular_symmetry(self):
        h = sample_channel_matrix(ChannelDims(1, 1, 1), RngStream(SEED, 101), count=10**6)
        cov = np.mean(h.real * h.imag)
        assert abs(cov) < 0.004
        # halves carry variance 1/2 each
        assert abs(np.var(h.real) - 0.5) < 0.004
        assert abs(np.var(h.imag) - 0.5) < 0.004

    def test_gram_trace_mean(self):
        # trace(H^dagger H) ~ Gamma(rt, 1), mean rt
        dims = ChannelDims(2, 3, 1)
        h = sample_channel_matrix(dims, RngStream(SEED, 102), count=10**5)
        traces = np.sum(np.abs(h) ** 2, axis=(1, 2))
        se = traces.std(ddof=1) / math.sqrt(len(traces))
        assert abs(traces.mean() - 6.0) <= 3 * se

    def test_bit_reproducible(self):
        dims = ChannelDims(3, 2, 4)
        a = sample_channel_matrix(dims, RngStream(SEED, 103))
        b = sample_channel_matrix(dims, RngStream(SEED, 103))
        assert np.array_equal(a, b)
        c = sample_channel_matrix(dims, RngStream(SEED, 104))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("t,r", [(t, r) for t in (1, 2, 3) for r in (1, 2, 3)])
    def test_gram_trace_matches_gamma_cdf(self, t, r):
        # Kolmogorov-Smirnov against the regularized gamma kernel
        dims = ChannelDims(t, r, 1)
        h = sample_channel_matrix(dims, RngStream(SEED, 110 + 3 * t + r), count=10**5)
        traces = np.sort(np.sum(np.abs(h) ** 2, axis=(1, 2)))
        n = len(traces)
        cdf = np.array([gamma_lower_regularized(r * t, x) for x in traces])
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - cdf)), np.max(np.abs(cdf - (grid - 1 / n))))
        assert ks < 0.01


class TestGammaKernel:
    def test_zero_argument(self):
        for k in (1, 2, 7, 16):
            assert gamma_lower_regularized(k, 0.0) == 0.0

    def test_exponential_closed_form(self):
        assert gamma_lower_regularized(1, 0.1) == pytest.approx(
            1.0 - math.exp(-0.1), rel=1e-14
        )

    def test_k4_series_value(self):
        # finite series: 1 - e^-1 (1 + 1 + 1/2 + 1/6)
        expected = 1.0 - math.exp(-1.0) * (1 + 1 + 0.5 + 1 / 6)
        assert gamma_lower_regularized(4, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_lower_regularized(0, 1.0)
        with pytest.raises(DomainError):
            gamma_lower_regularized(2, -0.5)
        with pytest.raises(DomainError):
            gamma_lower_regularized(2.0, 0.5)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 16])
    def test_matches_scipy(self, k):
        for x in np.geomspace(1e-6, 50, 40):
            assert gamma_lower_regularized(k, float(x)) == pytest.approx(
                float(special.gammainc(k, x)), rel=1e-12, abs=1e-300
            )

    @pytest.mark.parametrize("k", [1, 2, 4, 9, 16])
    def test_complement_against_poisson_series(self, k):
        # Q(k, x) = e^-x sum_{j<k} x^j / j! for integer k
        for x in (0.1, 0.7, 1.0, 3.0, 7.5, 20.0, 50.0):
            q_series = math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))
            total = gamma_lower_regularized(k, x) + q_series
            assert abs(total - 1.0) <= 1e-12
            assert gamma_upper_regularized(k, x) == pytest.approx(q_series, rel=1e-12)

    def test_monotonicity(self):
        xs = np.linspace(0.0, 30.0, 200)
        for k in (1, 3, 9):
            vals = [gamma_lower_regularized(k, float(x)) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)
        # nonincreasing in k at fixed x
        for x in (0.5, 2.0, 10.0):
            by_k = [gamma_lower_regularized(k, x) for k in range(1, 17)]
            assert all(b <= a for a, b in zip(by_k, by_k[1:]))

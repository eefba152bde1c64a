import io
import math
import os
import sys

import numpy as np
import pytest
from scipy import special

from conftest import SEED
from widemimo import (
    ChannelDims,
    DimensionError,
    DomainError,
    RngStream,
    empirical_tail_cdf,
    energy_per_nat,
    gamma_lower_regularized,
    gamma_upper_regularized,
    iid_capacity_bracket,
    mc_coherent_mi,
    mc_onoff_mi,
    onoff_building_blocks,
    sample_channel_matrix,
)
from widemimo.check import run_check
from widemimo.sweep import SweepConfig, run_sweep


def test_dims_validation():
    ChannelDims(1, 1, 1)
    with pytest.raises(DimensionError):
        ChannelDims(0, 1, 1)
    with pytest.raises(DimensionError):
        ChannelDims(2, 2, 2.5)
    with pytest.raises(DimensionError):
        ChannelDims(2, True, 2)


# Plain ints >= 1 skip the full check; everything else still takes it.
@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 1, 1), "t must be an integer, got True"),
        ((1, 2.0, 1), "r must be an integer, got 2.0"),
        ((1, 1, 0), "l must be >= 1, got 0"),
    ],
    ids=["bool", "float", "zero"],
)
def test_dims_reject_non_counts_with_their_message(args, message):
    with pytest.raises(DimensionError) as err:
        ChannelDims(*args)
    assert str(err.value) == message


def test_dims_reject_counts_past_the_float_range():
    # the closed forms take counts as floats: int(float max) is the largest count
    largest = int(sys.float_info.max)
    assert ChannelDims(1, largest, 1).r == largest
    for count in (largest + 1, 10**400, 10**5000):
        with pytest.raises(DimensionError) as err:
            ChannelDims(1, 1, count)
        assert str(err.value) == (
            f"l must be at most 1.79769e+308, got a {count.bit_length()}-bit integer"
        )


def test_dims_reject_an_antenna_product_past_the_float_range():
    # each count is in range, but the Gallager forms take r t as a float
    assert ChannelDims(2**511, 2**512, 1).r == 2**512
    with pytest.raises(DimensionError) as err:
        ChannelDims(10**200, 10**200, 1)
    assert str(err.value) == "r*t must be at most 1.79769e+308, got a 1329-bit integer"


def test_dims_numpy_integer_becomes_int():
    dims = ChannelDims(np.int64(3), 2, np.int32(5))
    assert dims == ChannelDims(3, 2, 5)
    assert type(dims.t) is int and type(dims.l) is int


# Every count argument (r, or the tail's k) goes through one check: numpy
# integers count, bools and non-positive values do not.
COUNT_CALLS = {
    "energy_per_nat": lambda r: energy_per_nat(r, 0.01, 0.002),
    "onoff_building_blocks": lambda r: onoff_building_blocks(r, 0.01, 10.0),
    "mc_onoff_mi": lambda r: mc_onoff_mi(r, 0.01, 10.0, 10_000, RngStream(SEED, 140)),
    "empirical_tail_cdf": lambda k: empirical_tail_cdf(k, 1.0, 1000, RngStream(SEED, 141)),
    "gamma_lower_regularized": lambda k: gamma_lower_regularized(k, 1.0),
    "iid_capacity_bracket": lambda r: iid_capacity_bracket(r, 0.01),
}


@pytest.mark.parametrize("name", list(COUNT_CALLS))
def test_count_arguments_share_one_check(name):
    call = COUNT_CALLS[name]
    assert call(np.int64(2)) == call(2)
    for bad, message in ((True, "must be an integer, got True"), (0, "must be >= 1, got 0")):
        with pytest.raises(DomainError, match=f"{message}$"):
            call(bad)


# A count past the float range either way is shown by its bit length: an int
# of more than 4300 digits cannot be formatted.
FAR_COUNTS = {
    "1e400": (10**400, "must be at most 1.79769e+308, got a 1329-bit integer"),
    "1e5000": (10**5000, "must be at most 1.79769e+308, got a 16610-bit integer"),
    "-1e5000": (-(10**5000), "must be >= 1, got a negative 16610-bit integer"),
}


@pytest.mark.parametrize("name", list(COUNT_CALLS))
@pytest.mark.parametrize("far", list(FAR_COUNTS))
def test_count_arguments_past_the_float_range(name, far):
    # a library error before any float conversion or draw, however long the int
    count, message = FAR_COUNTS[far]
    with pytest.raises(DomainError) as err:
        COUNT_CALLS[name](count)
    assert str(err.value).endswith(f" {message}")


# The other counts take the same check with their own error and minimum:
# (call, the count's name, error, minimum).
OTHER_COUNT_CALLS = {
    "ChannelDims": (lambda l: ChannelDims(1, 1, l), "l", DimensionError, 1),
    "sample_channel_matrix": (
        lambda count: sample_channel_matrix(ChannelDims(1, 1, 1), RngStream(SEED, 142), count),
        "count", DimensionError, 1,
    ),
    "mc_coherent_mi": (
        lambda n: mc_coherent_mi(ChannelDims(1, 1, 1), 0.01, n, RngStream(SEED, 143)),
        "n", DomainError, 1000,
    ),
    "mc_onoff_mi": (
        lambda n: mc_onoff_mi(1, 0.01, 10.0, n, RngStream(SEED, 144)), "n", DomainError, 10_000
    ),
    "run_check": (
        lambda threads: run_check(threads=threads, out=io.StringIO()), "threads", DomainError, 1
    ),
    "run_sweep": (
        lambda threads: run_sweep(
            SweepConfig("capacity", {"t": [1], "r": [1], "l": [10], "snr": [0.01]}),
            out=os.devnull, threads=threads, err_stream=io.StringIO(),
        ),
        "threads", DomainError, 1,
    ),
}


@pytest.mark.parametrize("name", list(OTHER_COUNT_CALLS))
def test_other_counts_share_the_check(name):
    call, count, error, minimum = OTHER_COUNT_CALLS[name]
    refusals = [
        (True, "must be an integer, got True"),
        (2.0, "must be an integer, got 2.0"),
        (minimum - 1, f"must be >= {minimum}, got {minimum - 1}"),
        (np.int64(minimum - 1), f"must be >= {minimum}, got {minimum - 1}"),
        (10**5000, "must be at most 1.79769e+308, got a 16610-bit integer"),
        (-(10**5000), f"must be >= {minimum}, got a negative 16610-bit integer"),
    ]
    for bad, message in refusals:
        with pytest.raises(error) as err:
            call(bad)
        assert str(err.value) == f"{count} {message}"


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


def _raw(seed, stream_id, block):
    return RngStream(seed, stream_id).generator(block).bit_generator.random_raw(4)


class TestRngStream:
    """The stream contract: (seed, stream_id, block) alone selects the bits."""

    def test_same_key_same_bits(self):
        assert np.array_equal(_raw(SEED, 7, 3), _raw(SEED, 7, 3))

    @pytest.mark.parametrize("other", [(SEED, 8, 3), (SEED, 7, 4), (SEED, 3, 7), (SEED + 1, 7, 3)])
    def test_any_other_key_other_bits(self, other):
        assert not np.array_equal(_raw(SEED, 7, 3), _raw(*other))

    def test_pinned_bits(self):
        # PCG64 bit streams are stable across numpy versions; Generator
        # methods such as standard_gamma are not, so no variate is pinned
        assert _raw(SEED, 1, 2)[:2].tolist() == [12718346177485665692, 2517410812667656203]


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

    def test_scalar_kernel_is_the_ufunc_bit_for_bit(self):
        # both functions call the ufuncs' scalar kernel: the same bits, as a float
        gen = np.random.default_rng(SEED)
        args = [(k, 0.0) for k in range(1, 18)] + list(zip(
            gen.integers(1, 18, 3000).tolist(), (10.0 ** gen.uniform(-12, 3, 3000)).tolist()
        ))
        for k, x in args:
            lower, upper = gamma_lower_regularized(k, x), gamma_upper_regularized(k, x)
            assert type(lower) is float and type(upper) is float
            assert lower.hex() == float(special.gammainc(k, x)).hex(), (k, x)
            assert upper.hex() == float(special.gammaincc(k, x)).hex(), (k, x)

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

import math

import numpy as np
import pytest

from conftest import SEED
from widemimo import (
    ChannelDims,
    DomainError,
    RegimeError,
    RngStream,
    coherence_for_regime,
    coherence_thresholds,
    coherent_expansion,
    energy_per_nat,
    gaussian_lower_bound,
    regime_from_coherence,
    regime_from_nu,
    sublinear_term,
)


class TestCoherentExpansion:
    def test_zero_snr(self):
        out = coherent_expansion(ChannelDims(2, 3, 10), 0.0)
        assert out.linear == out.sublinear == out.total == 0.0

    def test_hand_value(self):
        out = coherent_expansion(ChannelDims(2, 2, 10), 0.1)
        assert out.total == pytest.approx(0.2 - 0.02, rel=1e-15)

    def test_total_is_difference(self):
        out = coherent_expansion(ChannelDims(3, 2, 10), 0.03)
        assert out.total == out.linear - out.sublinear
        assert out.sublinear >= 0.0


class TestGaussianLowerBound:
    def test_zero_snr(self):
        assert gaussian_lower_bound(ChannelDims(1, 1, 10), 0.0) == 0.0

    def test_hand_value(self):
        # 0.1 - 0.01 - (1/1000) log(101)
        value = gaussian_lower_bound(ChannelDims(1, 1, 1000), 0.1)
        assert value == pytest.approx(0.09 - math.log(101) / 1000, rel=1e-12)
        assert value == pytest.approx(0.0853849, abs=5e-8)

    def test_monotone_in_coherence(self):
        values = [
            gaussian_lower_bound(ChannelDims(1, 1, l), 0.1)
            for l in np.unique(np.geomspace(2, 10**4, 20).astype(int))
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] <= coherent_expansion(ChannelDims(1, 1, 1), 0.1).total

    @pytest.mark.parametrize("t,r", [(1, 1), (2, 2), (3, 2), (2, 4)])
    def test_never_exceeds_expansion(self, t, r):
        for l in (1, 7, 100, 9999):
            for snr in (1e-4, 0.01, 0.3):
                dims = ChannelDims(t, r, l)
                assert gaussian_lower_bound(dims, snr) <= coherent_expansion(dims, snr).total


class TestRegime:
    def test_nu_one_point(self):
        # 25 = (4/16) * 0.1^-2
        regime = regime_from_coherence(ChannelDims(2, 2, 25), 0.1)
        assert regime.nu == pytest.approx(1.0, abs=1e-14)
        assert regime.delta == pytest.approx(1.0, abs=1e-14)
        assert regime.snr_b == pytest.approx(0.1, rel=1e-14)

    def test_fractional_nu(self):
        regime = regime_from_coherence(ChannelDims(1, 1, 10), 0.1)
        assert regime.nu == pytest.approx(0.80103, abs=5e-6)
        assert regime.delta == pytest.approx(0.6325, abs=5e-5)
        assert regime.snr_b == pytest.approx(0.1581, abs=5e-5)
        assert regime.delta * regime.snr_b == pytest.approx(0.1, rel=1e-12)

    def test_nu_above_one_clamps(self):
        regime = regime_from_coherence(ChannelDims(1, 1, 100), 0.1)
        assert regime.nu == pytest.approx(1.30103, abs=5e-6)
        assert regime.alpha_eff == 1.0
        assert regime.delta == 1.0
        assert regime.snr_b == 0.1

    def test_round_trip(self):
        for t, r, l, snr in [(1, 1, 10, 0.1), (2, 3, 777, 0.03), (4, 1, 25000, 0.002)]:
            regime = regime_from_coherence(ChannelDims(t, r, l), snr)
            back = coherence_for_regime(t, r, regime)
            assert back == pytest.approx(l, rel=1e-9)

    def test_duty_product_grid(self):
        gen = RngStream(SEED, 130).generator()
        for _ in range(50):
            snr = float(gen.uniform(1e-4, 0.5))
            nu = float(gen.uniform(0.05, 2.5))
            regime = regime_from_nu(snr, nu)
            assert 0.0 < regime.delta <= 1.0
            assert (regime.delta == 1.0) == (nu >= 1.0)
            assert regime.delta * regime.snr_b == pytest.approx(snr, rel=1e-12)

    def test_domain_guards(self):
        # integer l >= 1 keeps l (r+t)^2 / t^2 > 1, so the coherence route
        # cannot produce nu <= 0; the direct-nu route still guards it
        with pytest.raises(RegimeError):
            regime_from_nu(0.1, 0.0)
        with pytest.raises(DomainError):
            regime_from_coherence(ChannelDims(1, 1, 10), 1.5)
        with pytest.raises(DomainError):
            regime_from_nu(0.0, 1.0)


class TestThresholds:
    def test_hand_values(self):
        th = coherence_thresholds(ChannelDims(2, 2, 1), 0.1, alpha=1.0, epsilon=0.5)
        assert th.l_min == pytest.approx(25.0, rel=1e-12)
        assert th.l_gaussian == pytest.approx(250.0, rel=1e-12)

    def test_strict_order_random_pairs(self):
        gen = RngStream(SEED, 131).generator()
        for _ in range(50):
            alpha = float(gen.uniform(0.02, 1.0))
            eps = alpha * float(gen.uniform(1e-3, 0.999))
            th = coherence_thresholds(ChannelDims(1, 2, 1), 0.05, alpha, eps)
            assert th.l_min < th.l_gaussian

    def test_monotone_in_alpha_and_snr(self):
        # closer to coherent behavior (larger alpha) demands longer coherence,
        # and so does pushing deeper into the wideband limit (smaller snr)
        dims = ChannelDims(2, 1, 1)
        alphas = np.linspace(0.1, 1.0, 10)
        lmins = [coherence_thresholds(dims, 0.1, float(a), float(a) / 2).l_min for a in alphas]
        assert all(b > a for a, b in zip(lmins, lmins[1:]))
        snrs = [0.2, 0.1, 0.05, 0.01]
        lmins = [coherence_thresholds(dims, s, 0.7, 0.3).l_min for s in snrs]
        assert all(b > a for a, b in zip(lmins, lmins[1:]))

    def test_domain(self):
        dims = ChannelDims(1, 1, 1)
        with pytest.raises(DomainError):
            coherence_thresholds(dims, 0.1, alpha=1.2, epsilon=0.1)
        with pytest.raises(DomainError):
            coherence_thresholds(dims, 0.1, alpha=0.5, epsilon=0.5)

    def test_overflowing_threshold_is_a_domain_error(self):
        # 1e-200 ** -2 overflows a float; the map raises its own error
        with pytest.raises(DomainError, match="overflows"):
            coherence_thresholds(ChannelDims(1, 1, 1), 1e-200, 1.0, 0.5)
        with pytest.raises(DomainError, match="overflows"):
            coherence_for_regime(1, 1, regime_from_nu(1e-200, 1.0))
        # here -2 nu overflows first and the power returns inf without raising
        with pytest.raises(DomainError, match="overflows"):
            coherence_for_regime(1, 1, regime_from_nu(0.01, 1e308))


class TestSublinearTerm:
    def test_alpha_form_hand_value(self):
        value = sublinear_term(ChannelDims(1, 1, 1), 0.01, alpha=0.5)
        assert value == pytest.approx(0.01**1.5, rel=1e-14)

    def test_coherence_form_hand_value(self):
        value = sublinear_term(ChannelDims(1, 2, 1), 0.01, coherence_length=400)
        assert value == pytest.approx(2 * 0.01 / 40, rel=1e-14)

    def test_zero_snr(self):
        assert sublinear_term(ChannelDims(1, 1, 1), 0.0, coherence_length=10) == 0.0
        assert sublinear_term(ChannelDims(1, 1, 1), 0.0, alpha=1.0) == 0.0

    def test_alpha_one_matches_expansion(self):
        dims = ChannelDims(3, 2, 1)
        snr = 0.04
        assert sublinear_term(dims, snr, alpha=1.0) == coherent_expansion(dims, snr).sublinear

    def test_long_coherence_saturates_at_coherent_value(self):
        dims = ChannelDims(1, 1, 1)
        snr = 0.01
        saturation = 0.25 * snr**-2
        assert sublinear_term(dims, snr, coherence_length=saturation * 2) == sublinear_term(
            dims, snr, alpha=1.0
        )
        # continuous at the switch point
        at = sublinear_term(dims, snr, coherence_length=saturation)
        assert at == pytest.approx(sublinear_term(dims, snr, alpha=1.0), rel=1e-12)

    def test_saturation_beyond_float_range(self):
        # the saturation length overflows, so every finite l is below it
        dims, snr = ChannelDims(1, 1, 1), 1e-200
        assert sublinear_term(dims, snr, coherence_length=10) == snr / (2.0 * math.sqrt(10))

    def test_exactly_one_parameterization(self):
        with pytest.raises(DomainError):
            sublinear_term(ChannelDims(1, 1, 1), 0.01)
        with pytest.raises(DomainError):
            sublinear_term(ChannelDims(1, 1, 1), 0.01, alpha=0.5, coherence_length=10)


class TestEnergyPerNat:
    def test_ideal_wideband_limit(self):
        out = energy_per_nat(1, 0.01, 0.0)
        assert out.ratio == 1.0
        assert out.log_ratio == 0.0

    def test_hand_value(self):
        out = energy_per_nat(2, 0.01, 0.002)
        assert out.ratio == pytest.approx(0.5555555555555556, rel=1e-12)
        assert out.log_ratio == pytest.approx(-0.5878, abs=5e-5)
        assert out.log_approx == pytest.approx(0.1 - math.log(2), rel=1e-12)

    def test_limit_matches_minus_log_r(self):
        for r in (1, 2, 4):
            out = energy_per_nat(r, 0.01, 1e-12)
            assert out.log_ratio == pytest.approx(-math.log(r), abs=1e-9)
            assert out.log_approx == pytest.approx(-math.log(r), abs=1e-9)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(DomainError):
            energy_per_nat(1, 0.01, 0.01)
        with pytest.raises(DomainError):
            energy_per_nat(1, 0.01, 0.02)


# A bound check written as the positive condition rejects nan with its own message.
NAN_CALLS = {
    "coherent_expansion": (
        lambda: coherent_expansion(ChannelDims(1, 1, 10), math.nan), "snr must be >= 0, got nan"
    ),
    "gaussian_lower_bound": (
        lambda: gaussian_lower_bound(ChannelDims(1, 1, 10), math.nan), "snr must be >= 0, got nan"
    ),
    "sublinear_term-alpha": (
        lambda: sublinear_term(ChannelDims(1, 1, 1), math.nan, alpha=0.5),
        "snr must be >= 0, got nan",
    ),
    "sublinear_term-coherence": (
        lambda: sublinear_term(ChannelDims(1, 1, 1), math.nan, coherence_length=10),
        "snr must be >= 0, got nan",
    ),
    "energy_per_nat-snr": (lambda: energy_per_nat(1, math.nan, 0.0), "snr must be > 0, got nan"),
    "energy_per_nat-delta_term": (
        lambda: energy_per_nat(1, 0.01, math.nan), "delta_term must be >= 0, got nan"
    ),
}


@pytest.mark.parametrize("name", list(NAN_CALLS))
def test_nan_is_a_domain_error(name):
    call, message = NAN_CALLS[name]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message

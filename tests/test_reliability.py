import math

import numpy as np
import pytest
from scipy import optimize

from widemimo import (
    ChannelDims,
    DomainError,
    TrainingInfeasibleError,
    block_error_bound,
    coherent_expansion,
    diversity_low_snr,
    e0_upper,
    error_exponent,
    exponent_curve,
    gamma_lower_regularized,
    outage_probability,
    rate_landmarks,
    regime_from_coherence,
    rho_star,
    training_f,
    training_f_star,
)
from widemimo.reliability import rho_one_rate

REF_DIMS = ChannelDims(1, 1, 2500)  # nu = 1 at snr = 0.01
REF_SNR = 0.01

# (l, snr) points, per (t, r), on which the exponent, the landmarks and the
# public formulas must agree exactly, not only to a tolerance.
IDENTITY_POINTS = [(l, snr) for l in (5, 50, 2500, 100_000) for snr in (1e-3, 1e-2, 0.1)]
IDENTITY_COUNTS = [(t, r) for t in (1, 2, 4) for r in (1, 2, 3)]


class TestE0Upper:
    def test_zero_at_rho_zero(self):
        assert e0_upper(ChannelDims(2, 3, 50), 0.2, 0.0) == 0.0

    def test_hand_value(self):
        # log(1 + 10/2) at t=r=1, l=100, snr_b=0.1, rho=1
        assert e0_upper(ChannelDims(1, 1, 100), 0.1, 1.0) == pytest.approx(
            math.log(6.0), rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            e0_upper(ChannelDims(1, 1, 1), 0.1, 1.5)
        with pytest.raises(DomainError, match="^snr_b must be > 0, got nan$"):
            e0_upper(ChannelDims(1, 1, 1), math.nan, 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: e0_upper(ChannelDims(1, 1, 100), math.inf, 0.5),
            lambda: training_f(0.5, ChannelDims(1, 1, 100), math.inf),
            lambda: training_f_star(ChannelDims(1, 1, 100), math.inf),
        ],
        ids=["e0_upper", "training_f", "training_f_star"],
    )
    def test_infinite_snr_b(self, call):
        # bounded above, as the Monte Carlo E0 oracles are: +inf would come
        # back as inf, nan or an error about gamma
        with pytest.raises(DomainError, match="^snr_b must be > 0, got inf$"):
            call()


class TestTraining:
    def test_f_hand_value(self):
        value = training_f(0.5, ChannelDims(1, 1, 100), 0.1)
        # (5/6)(5/99) / (5/594 + 1)
        assert value == pytest.approx((5 / 6) * (5 / 99) / (5 / 594 + 1), rel=1e-14)
        assert value == pytest.approx(0.0417362, abs=5e-8)

    def test_f_vanishes_at_edges(self):
        dims = ChannelDims(1, 1, 100)
        assert training_f(1e-9, dims, 0.1) < 1e-8
        assert training_f(1 - 1e-9, dims, 0.1) < 1e-8

    def test_f_strictly_below_block_snr(self):
        dims = ChannelDims(1, 1, 100)
        for gamma in np.linspace(0.01, 0.99, 99):
            assert 0.0 < training_f(float(gamma), dims, 0.1) < 0.1

    def test_requires_training_room(self):
        with pytest.raises(TrainingInfeasibleError):
            training_f(0.5, ChannelDims(2, 1, 2), 0.1)

    def test_f_star_reference_point(self):
        out = training_f_star(ChannelDims(1, 1, 100), 0.1)
        assert out.f_star == pytest.approx(0.05300, abs=1e-5)
        assert out.gamma_star == pytest.approx(0.24, abs=0.005)
        # interior-optimum surrogate of the algebraic lower bound stays below
        q = 100 * 0.1 / 1.1
        g = (math.sqrt(1 + q) - 1) / q
        lower = (100 * 0.01 / 1.1) * g * (1 - g) / (1 + g * q)
        assert lower == pytest.approx(0.052116, abs=5e-6)
        assert lower <= out.f_star

    def test_f_star_monotone_in_coherence(self):
        values = [
            training_f_star(ChannelDims(1, 1, l), 0.1).f_star for l in (50, 100, 200)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_f_star_asymptotic_companion(self):
        dims = ChannelDims(1, 1, 100)
        regime = regime_from_coherence(dims, 0.1)
        out = training_f_star(dims, regime.snr_b, regime=regime)
        expected = regime.snr_b - 2 * 2 * regime.snr ** (regime.nu + 0.5)
        assert out.f_lb_asymptotic == pytest.approx(expected, rel=1e-12)
        assert out.f_lb_asymptotic <= out.f_star

    def test_training_exponent_below_coherent_bound(self):
        # pilot-scheme Gallager value can never beat the coherent-side bound
        dims = ChannelDims(2, 2, 50)
        snr_b = 0.1
        f_star = training_f_star(dims, snr_b).f_star
        rt = dims.r * dims.t
        for rho in np.linspace(0.0, 1.0, 21):
            trained = rt * math.log1p(
                rho * (dims.l - dims.t) * f_star / (dims.t * (1.0 + rho))
            )
            assert trained <= e0_upper(dims, snr_b, float(rho)) + 1e-12


OPTIMUM_GRID = [
    (t, l, snr_b)
    for t in (1, 2, 4)
    for l in (t + 1, 10 * t, 1000, 10**6)
    for snr_b in (1e-4, 1e-2, 1.0, 10.0)
]


class TestTrainingOptimumClosedForm:
    """gamma_star is the root in (0, 1) of d g^2 + 2 c g - c = 0."""

    @pytest.mark.parametrize("t, l, snr_b", OPTIMUM_GRID)
    def test_matches_golden_section(self, t, l, snr_b):
        # scipy's bounded Brent search: golden-section steps sped up by
        # parabolic interpolation
        dims = ChannelDims(t, 1, l)
        reference = -optimize.minimize_scalar(
            lambda g: -training_f(g, dims, snr_b),
            bounds=(1e-12, 1.0 - 1e-12),
            method="bounded",
            options={"xatol": 1e-10},
        ).fun
        out = training_f_star(dims, snr_b)
        assert out.f_star == pytest.approx(reference, rel=1e-14, abs=0.0)
        assert out.f_star == training_f(out.gamma_star, dims, snr_b)

    @pytest.mark.parametrize("t, l, snr_b", OPTIMUM_GRID)
    def test_beats_dense_grid(self, t, l, snr_b):
        dims = ChannelDims(t, 1, l)
        out = training_f_star(dims, snr_b)
        for gamma in np.linspace(1e-6, 1.0 - 1e-6, 4001):
            assert training_f(float(gamma), dims, snr_b) <= out.f_star

    @pytest.mark.parametrize("t, l, snr_b", OPTIMUM_GRID)
    def test_quadratic_residual(self, t, l, snr_b):
        g = training_f_star(ChannelDims(t, 1, l), snr_b).gamma_star
        e_total = l * snr_b
        c = t * (e_total + l - t)
        d = e_total * (l - 2 * t)
        residual = d * g * g + 2.0 * c * g - c
        scale = abs(d) * g * g + 2.0 * c * g + c
        assert 0.0 < g < 1.0
        assert abs(residual) <= 8.0 * np.finfo(float).eps * scale


class TestRhoStar:
    def test_rate_zero_convention(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        assert rho_star(REF_DIMS, regime, 0.0) == 1.0

    def test_clips_to_one_below_critical(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        boundary = rho_one_rate(REF_DIMS, regime)
        assert rho_star(REF_DIMS, regime, boundary * 0.9) == 1.0
        assert rho_star(REF_DIMS, regime, boundary) == pytest.approx(1.0, abs=1e-12)
        assert rho_star(REF_DIMS, regime, boundary * 1.1) < 1.0

    def test_limit_value_tiny_correction(self):
        # rt/R = 0.5 with negligible 1/kappa correction: rho* -> (sqrt(3)-1)/2
        dims = ChannelDims(1, 4, 10**10)
        regime = regime_from_coherence(dims, 0.01)
        assert rho_star(dims, regime, 8.0) == pytest.approx(
            (math.sqrt(3) - 1) / 2, abs=1e-7
        )

    def test_vanishes_at_large_rate(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        assert rho_star(REF_DIMS, regime, 1e9) == 0.0

    def test_frozen_reference(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        assert rho_star(REF_DIMS, regime, 10.0) == pytest.approx(
            0.05286441464013528, rel=1e-12
        )

    @pytest.mark.parametrize("rate", [1.0, 5.0, 10.0, 14.0])
    def test_matches_grid_argmax(self, rate):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        kappa = REF_DIMS.l * regime.snr_b / REF_DIMS.t
        rhos = np.linspace(0.0, 1.0, 10_001)
        values = np.log1p(kappa * rhos / (1 + rhos)) - rhos * rate  # rt = 1 here
        best = rhos[int(np.argmax(values))]
        assert abs(rho_star(REF_DIMS, regime, rate) - best) <= 1e-4


class TestLandmarks:
    def test_reference_values(self):
        lm = rate_landmarks(REF_DIMS, REF_SNR)
        assert lm.r_critical == pytest.approx(0.5, rel=1e-9)
        assert lm.r_cutoff == pytest.approx(math.log(13.5), rel=1e-9)
        assert lm.c_block_training_lb == pytest.approx(14.75, rel=1e-9)
        assert lm.c_block == pytest.approx(24.75, rel=1e-9)
        assert lm.asymptotics_binding

    def test_ordering(self):
        lm = rate_landmarks(REF_DIMS, REF_SNR)
        assert lm.r_critical < lm.r_cutoff < lm.c_block_training_lb < lm.c_block

    def test_critical_rate_scales_with_antennas(self):
        assert rate_landmarks(ChannelDims(2, 3, 40000), 0.01).r_critical == 3.0

    @pytest.mark.parametrize("t,r", IDENTITY_COUNTS)
    def test_built_from_e0_and_the_coherent_expansion(self, t, r):
        # r_cutoff is E0(1) and c_block is l times the coherent expansion at snr_b, bit for bit
        for l, snr in IDENTITY_POINTS:
            dims = ChannelDims(t, r, l)
            snr_b = regime_from_coherence(dims, snr).snr_b
            lm = rate_landmarks(dims, snr)
            assert lm.r_cutoff == e0_upper(dims, snr_b, 1.0)
            assert lm.c_block == l * coherent_expansion(dims, snr_b).total

    def test_degenerate_regime_flagged(self):
        # nu = 0.5 at snr = 0.01: the training bound has not opened region B yet
        lm = rate_landmarks(ChannelDims(1, 1, 25), 0.01)
        assert not lm.asymptotics_binding
        assert lm.c_block_training_lb < 0.0


class TestErrorExponent:
    def test_rate_zero_is_cutoff(self):
        lm = rate_landmarks(REF_DIMS, REF_SNR)
        point = error_exponent(REF_DIMS, REF_SNR, 0.0)
        assert point.value == pytest.approx(lm.r_cutoff, rel=1e-15)
        assert point.region == "A"
        assert point.rho == 1.0

    def test_beyond_capacity(self):
        assert error_exponent(REF_DIMS, REF_SNR, 24.75).value == 0.0
        assert error_exponent(REF_DIMS, REF_SNR, 30.0).region == "beyond"

    def test_region_c_is_tagged_zero(self):
        point = error_exponent(REF_DIMS, REF_SNR, 20.0)
        assert point.value == 0.0
        assert point.region == "C (o(1) only)"

    def test_frozen_region_b_value(self):
        # recomputed with the exact maximizer (see decisions ledger)
        point = error_exponent(REF_DIMS, REF_SNR, 10.0)
        assert point.region == "B"
        assert point.value == pytest.approx(0.2846176578009757, rel=1e-12)

    def test_continuity_at_region_junction(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        boundary = rho_one_rate(REF_DIMS, regime)
        via_a = e0_upper(REF_DIMS, regime.snr_b, 1.0) - boundary
        via_b = error_exponent(REF_DIMS, REF_SNR, boundary).value
        assert abs(via_a - via_b) <= 1e-9

    @pytest.mark.parametrize("t,r", IDENTITY_COUNTS)
    def test_regions_a_b_are_e0_upper_at_rho_star(self, t, r):
        # one Gallager function: E_r(R) = E0(rho*) - rho* R exactly in regions A and B
        for l, snr in IDENTITY_POINTS:
            dims = ChannelDims(t, r, l)
            regime = regime_from_coherence(dims, snr)
            for rate in (0.0, 0.5, 2.0, 10.0):
                point = error_exponent(dims, snr, rate)
                if point.region in ("A", "B"):
                    rho = rho_star(dims, regime, rate)
                    assert point.value == e0_upper(dims, regime.snr_b, rho) - rho * rate

    @pytest.mark.parametrize("t,r", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("snr", [1e-2, 1e-3])
    def test_nonincreasing_in_rate(self, t, r, nu, snr):
        l = max(t + 1, round(t**2 / (r + t) ** 2 * snr ** (-2 * nu)))
        dims = ChannelDims(t, r, l)
        c_block = rate_landmarks(dims, snr).c_block
        rates = np.linspace(0.0, 1.2 * c_block, 200)
        values = [error_exponent(dims, snr, float(rate)).value for rate in rates]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_degenerate_regime_keeps_positive_exponent(self):
        # no region-C zeroing when the training bound is degenerate
        dims = ChannelDims(1, 1, 25)
        point = error_exponent(dims, 0.01, 0.790569)
        assert not point.asymptotics_binding
        assert point.value > 0.0
        assert point.region == "B"

    def test_curve_builder(self):
        rates = np.linspace(0.0, 30.0, 31)
        curve = exponent_curve(REF_DIMS, REF_SNR, rates)
        assert curve.landmarks == rate_landmarks(REF_DIMS, REF_SNR)
        assert curve.landmarks.c_block == pytest.approx(24.75, rel=1e-9)
        assert len(curve.samples) == 31
        regions = [p.region for p in curve.samples]
        assert regions[0] == "A"
        assert "B" in regions and "beyond" in regions


class TestBlockErrorBound:
    def test_capacity_boundary(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        assert block_error_bound(REF_DIMS, REF_SNR, 30.0) == regime.delta

    def test_factorizes_exactly(self):
        regime = regime_from_coherence(REF_DIMS, REF_SNR)
        for rate in (0.0, 0.3, 5.0, 10.0, 20.0):
            bound = block_error_bound(REF_DIMS, REF_SNR, rate)
            value = error_exponent(REF_DIMS, REF_SNR, rate).value
            assert bound / math.exp(-value) == pytest.approx(regime.delta, rel=1e-15)

    def test_frozen_value(self):
        assert block_error_bound(REF_DIMS, REF_SNR, 10.0) == pytest.approx(
            math.exp(-0.2846176578009757), rel=1e-12
        )

    def test_peaky_prefactor(self):
        # nu = 0.5: only snr^0.5 of blocks carry signal
        bound = block_error_bound(ChannelDims(1, 1, 25), 0.01, 100.0)
        assert bound == pytest.approx(0.1, rel=1e-12)

    def test_in_unit_interval(self):
        for rate in np.linspace(0, 40, 50):
            assert 0.0 <= block_error_bound(REF_DIMS, REF_SNR, float(rate)) <= 1.0


class TestOutage:
    def test_zero_rate(self):
        assert outage_probability(REF_DIMS, REF_SNR, 0.0).probability == 0.0

    def test_reduces_to_gamma_cdf(self):
        # engineered so the tail argument is exactly 1: P(rt, 1)
        dims = ChannelDims(2, 2, 2500)
        regime = regime_from_coherence(dims, REF_SNR)
        f_star = training_f_star(dims, regime.snr_b).f_star
        out = outage_probability(dims, REF_SNR, dims.l * f_star)
        assert out.probability == pytest.approx(gamma_lower_regularized(4, 1.0), rel=1e-9)
        assert out.probability == pytest.approx(0.018988, abs=1e-6)

    def test_error_weighting(self):
        dims = ChannelDims(1, 1, 25)  # nu = 0.5 at snr 0.01, delta = 0.1
        out = outage_probability(dims, 0.01, 0.5)
        assert out.error_weighted == pytest.approx(0.1 * out.probability, rel=1e-12)

    def test_training_required(self):
        with pytest.raises(TrainingInfeasibleError):
            outage_probability(ChannelDims(2, 1, 2), 0.01, 1.0)


class TestDiversity:
    def test_hand_values(self):
        dims = ChannelDims(2, 2, 100)
        assert diversity_low_snr(dims, 1.0, 1.5).order == pytest.approx(2.0)
        dims = ChannelDims(1, 1, 100)
        assert diversity_low_snr(dims, 0.5, 0.75).order == pytest.approx(0.75)

    def test_boundary_limit(self):
        # kappa -> min(1, nu)+ leaves only the duty-cycle exponent
        order = diversity_low_snr(ChannelDims(1, 1, 10), 0.5, 0.5 + 1e-9).order
        assert order == pytest.approx(0.5, abs=1e-8)

    def test_kappa_domain(self):
        dims = ChannelDims(1, 1, 10)
        with pytest.raises(DomainError):
            diversity_low_snr(dims, 0.5, 0.5)
        with pytest.raises(DomainError):
            diversity_low_snr(dims, 0.5, 1.0)

    def test_empirical_slopes_match_frozen(self):
        grid = [1e-2, 10**-2.5, 1e-3]
        est = diversity_low_snr(ChannelDims(1, 1, 2500), 1.0, 1.5, snr_grid=grid)
        assert est.bound_fit.slope == pytest.approx(0.5262572588819386, rel=1e-9)
        assert est.outage_fit.slope == pytest.approx(0.594, abs=2e-3)
        assert est.order == 0.5

    @pytest.mark.parametrize(
        "dims,nu,kappa,grid",
        [
            # coherence 1.5 <= t = 2 at snr 0.5: the training root is imaginary
            (ChannelDims(2, 1, 100), 0.877, 1.2, [0.5, 0.1]),
            # coherence 0.5 and 0.625 <= t = 2: the training optimum turns negative
            (ChannelDims(2, 2, 100), 0.5, 0.75, [0.5, 0.4]),
        ],
    )
    def test_grid_point_that_cannot_train(self, dims, nu, kappa, grid):
        with pytest.raises(TrainingInfeasibleError, match="training needs l > t"):
            diversity_low_snr(dims, nu, kappa, snr_grid=grid)

    def test_grid_point_whose_coherence_overflows(self):
        # 1e-200 ** -2 overflows the coherence map: a library error, not OverflowError
        with pytest.raises(DomainError, match="coherence length .* overflows"):
            diversity_low_snr(ChannelDims(1, 1, 10), 1.0, 1.5, snr_grid=[1e-2, 1e-200])


# A bound check written as the positive condition rejects nan with its own message.
NAN_CALLS = {
    "error_exponent": lambda: error_exponent(REF_DIMS, REF_SNR, math.nan),
    "exponent_curve": lambda: exponent_curve(REF_DIMS, REF_SNR, [math.nan]),
    "block_error_bound": lambda: block_error_bound(REF_DIMS, REF_SNR, math.nan),
    "outage_probability": lambda: outage_probability(REF_DIMS, REF_SNR, math.nan),
    "rho_star": lambda: rho_star(REF_DIMS, regime_from_coherence(REF_DIMS, REF_SNR), math.nan),
    "training_f": lambda: training_f(0.5, REF_DIMS, math.nan),
    "training_f_star": lambda: training_f_star(REF_DIMS, math.nan),
}
NAN_MESSAGES = dict.fromkeys(["training_f", "training_f_star"], "snr_b must be > 0, got nan")


@pytest.mark.parametrize("name", list(NAN_CALLS))
def test_nan_is_a_domain_error(name):
    with pytest.raises(DomainError) as err:
        NAN_CALLS[name]()
    assert str(err.value) == NAN_MESSAGES.get(name, "rate must be >= 0, got nan")

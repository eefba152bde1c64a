"""Error probability machinery for the wideband non-coherent channel.

Random-coding error exponent over coherence blocks, the pilot-based training
scheme that lower-bounds it, rate landmarks, the block error bound, outage,
and the low-SNR diversity order.

The operating-point layer, ``operating_point(t, r, snr, l=... | nu=...)``,
builds the rate-independent state of a point once (the training optimum on
first use); its methods evaluate the exponent, the block error bound and the
outage at one rate.  The public functions, ``diversity_low_snr`` and the sweep
rows all go through it.

Every additive o(1) term in the source expressions is dropped; results carry
a ``dropped`` note naming what was discarded so downstream consumers (CSV
output, tests) can budget slack instead of trusting loose tolerances.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import RegimeParams, _expansion, coherence_for_regime
from .capacity import regime_from_coherence, regime_from_nu
from .channel import ChannelDims, gamma_lower_regularized
from .errors import DomainError, TrainingInfeasibleError

__all__ = [
    "TrainingOptimum",
    "RateLandmarks",
    "ExponentPoint",
    "ExponentCurve",
    "OutageEstimate",
    "DiversityEstimate",
    "SlopeFit",
    "OperatingPoint",
    "e0_upper",
    "training_f",
    "training_f_star",
    "rho_star",
    "rho_one_rate",
    "operating_point",
    "rate_landmarks",
    "error_exponent",
    "exponent_curve",
    "block_error_bound",
    "outage_probability",
    "diversity_low_snr",
    "slope_fit",
]

REGION_A = "A"
REGION_B = "B"
REGION_C = "C (o(1) only)"
REGION_BEYOND = "beyond"

_DROPPED_EXPONENT = "additive o(1) in the exponent dropped"
_DROPPED_LANDMARKS = "o(1) in critical rate and capacity-curvature remainders dropped"


@dataclass(frozen=True)
class TrainingOptimum:
    """Best training energy fraction and the resulting effective data SNR.

    f_lb_asymptotic is the leading-order closed form
    snr^min(1,nu) - 2 (t+r)/sqrt(t) snr^(nu + min(1,nu)/2) (remainder
    dropped); it is None unless a regime was supplied.  The training scheme's
    optimality rests on a conjectured worst-case noise distribution, so
    treat f_star as conjectured-tight.
    """

    f_star: float
    gamma_star: float
    f_lb_asymptotic: float | None = None


@dataclass(frozen=True)
class RateLandmarks:
    """Rates (nats per transmitted block) that organize the exponent curve.

    asymptotics_binding is False when the training lower bound fails to open
    a region between the critical rate and capacity at this snr; treat the
    region structure as degenerate rather than erroring.
    """

    r_critical: float
    r_cutoff: float
    c_block: float
    c_block_training_lb: float
    asymptotics_binding: bool
    dropped: str = _DROPPED_LANDMARKS


@dataclass(frozen=True)
class ExponentPoint:
    """Error exponent at one rate with its region label and maximizing rho."""

    rate: float
    value: float
    rho: float
    region: str
    asymptotics_binding: bool
    dropped: str = _DROPPED_EXPONENT


@dataclass(frozen=True)
class ExponentCurve:
    """Sampled exponent curve plus the ``rate_landmarks`` of its operating point.

    The landmarks carry their asymptotics_binding flag and dropped-term note.
    """

    landmarks: RateLandmarks
    samples: tuple[ExponentPoint, ...]


@dataclass(frozen=True)
class OutageEstimate:
    """Outage probability and its duty-cycle-weighted error heuristic."""

    probability: float
    error_weighted: float


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares line fit; residual is the sum of squared errors."""

    slope: float
    intercept: float
    residual: float


@dataclass(frozen=True)
class DiversityEstimate:
    """Closed-form low-SNR diversity order with optional empirical slopes."""

    order: float
    bound_fit: SlopeFit | None = None
    outage_fit: SlopeFit | None = None


# ---------------------------------------------------------------------------
# Scalar layer: everything expressed through (rt, kappa, rate) where
# kappa = l snr_b / t is the per-antenna block SNR entering the Gallager
# objective rt log(1 + kappa rho / (1 + rho)) - rho R.  Real-valued coherence
# is allowed here and in the operating-point layer below.
# ---------------------------------------------------------------------------


def _kappa(t: int, coherence: float, snr_b: float) -> float:
    return coherence * snr_b / t


def _e0(rt: int, kappa: float, rho: float) -> float:
    """The block Gallager function rt log(1 + kappa rho / (1 + rho)) (Gallager 1968)."""
    return rt * math.log1p(kappa * rho / (1.0 + rho))


def _rho_one(rt: int, kappa: float) -> float:
    """The rate rt kappa / (2 (2 + kappa)) below which rho* is 1."""
    return rt * kappa / (2.0 * (2.0 + kappa))


def _rho_star_scalar(rt: int, kappa: float, rate: float) -> float:
    """Exact maximizer of the Gallager objective over rho in [0, 1].

    rate = 0 returns 1 (the objective is increasing in rho).  The interior
    stationary point solves (1+kappa) rho^2 + (2+kappa) rho + 1 - rt kappa/R = 0;
    it is clipped into [0, 1].  The zero branch triggers exactly when
    rt/R <= 1/kappa, i.e. when the slope at rho = 0 is nonpositive.  The
    root is taken as 2 (rt kappa/R - 1)/(b + sqrt(disc)), the product of
    the roots over the other root, so no cancellation loses it when it is
    far below 1 (large kappa with rt kappa/R near 1).

    Where kappa^2 or rt kappa/R overflows the disc, the root is 1 below
    ``rho_one_rate``; above it kappa is past about 1e154, and the same root
    is taken with its numerator and denominator divided by kappa.
    """
    if rate <= 0.0:
        return 1.0
    if rt * kappa <= rate:
        return 0.0
    a = 1.0 + kappa
    b = 2.0 + kappa
    disc = kappa * kappa + 4.0 * a * rt * kappa / rate
    if disc < math.inf:
        rho = 2.0 * (rt * kappa / rate - 1.0) / (b + math.sqrt(disc))
    elif rate <= _rho_one(rt, kappa):
        return 1.0
    else:
        q, inv = rt / rate, 1.0 / kappa
        rho = 2.0 * (q - inv) / (b * inv + math.sqrt(1.0 + 4.0 * (inv + 1.0) * q))
    return min(1.0, max(0.0, rho))


# ---------------------------------------------------------------------------
# Training scheme: pilots on the first t symbols, MMSE estimate, effective
# data SNR f(gamma, snr).
# ---------------------------------------------------------------------------


def _training_domain(t: int, coherence: float, snr_b: float) -> float:
    """The training scheme's one domain check (pilots take t symbols); returns E = l snr_b."""
    if coherence <= t:
        raise TrainingInfeasibleError(f"training needs l > t, got l={coherence:g}, t={t}")
    if not 0.0 < snr_b < math.inf:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    e_total = coherence * snr_b
    if e_total == math.inf:
        raise DomainError(f"block energy l snr_b overflows at l={coherence:g}, snr_b={snr_b:g}")
    return e_total


def _training_f_scalar(gamma: float, t: int, coherence: float, e_total: float) -> float:
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must be in (0, 1), got {gamma}")
    est_gain = gamma * e_total / (t + gamma * e_total)  # MMSE estimate quality
    data_power = (1.0 - gamma) * e_total / (coherence - t)
    residual = t * data_power / (t + gamma * e_total) + 1.0  # estimation-error noise lift
    return est_gain * data_power / residual


def _f_star_scalar(t: int, coherence: float, snr_b: float) -> tuple[float, float]:
    """Exact maximum of f over gamma, as (f_star, gamma_star).

    With E = l snr_b, f(gamma) = E^2 gamma (1 - gamma) / (c + d gamma) where
    c = t (E + l - t) and d = E (l - 2t), so the maximizer is the root in
    (0, 1) of d gamma^2 + 2 c gamma - c = 0 (Hassibi & Hochwald 2003).  Written
    as 1 / (1 + sqrt((c + d) / c)) it needs no special case for d = 0.  Where
    the product (l - t)(E + t) in (c + d) / c overflows, about l^2 snr_b past
    1.8e308, the ratio is formed as ((l - t)/t) ((E + t)/(E + l - t)) instead,
    its second factor divided through by l.  ``_training_domain`` checks the domain.
    """
    e_total = _training_domain(t, coherence, snr_b)
    ratio = (coherence - t) * (e_total + t) / (t * (e_total + coherence - t))
    if not ratio < math.inf:
        ratio = (coherence - t) / t * (
            (snr_b + t / coherence) / (snr_b + (coherence - t) / coherence)
        )
    gamma = 1.0 / (1.0 + math.sqrt(ratio))
    return _training_f_scalar(gamma, t, coherence, e_total), gamma


def training_f(gamma: float, dims: ChannelDims, snr_b: float) -> float:
    """Effective post-training data SNR f(gamma, snr) for one energy split.

    gamma of the block energy l*snr_b goes to pilots, the rest to data; the
    MMSE estimation error folds into the noise, which is what caps f below
    snr_b for every split.  ``_training_domain`` checks the domain, then gamma is checked.
    """
    e_total = _training_domain(dims.t, dims.l, snr_b)
    return _training_f_scalar(gamma, dims.t, dims.l, e_total)


def training_f_star(
    dims: ChannelDims, snr_b: float, regime: RegimeParams | None = None
) -> TrainingOptimum:
    """Maximize f(gamma, snr) over the training fraction, in closed form.

    gamma_star = 1 / (1 + sqrt((l - t)(E + t) / (t (E + l - t)))) with
    E = l snr_b is the exact maximizer (Hassibi & Hochwald, "How much training
    is needed in multiple-antenna wireless links?", IEEE T-IT 2003), and
    f_star = f(gamma_star).  With a regime supplied, also evaluates the
    leading-order asymptotic form of the maximum for cross-checks; concrete
    numbers (outage, the training exponent) always use the exact maximum;
    ``_training_domain`` checks the domain.
    """
    f_star, gamma_star = _f_star_scalar(dims.t, dims.l, snr_b)
    f_lb = None
    if regime is not None:
        f_lb = regime.snr ** regime.alpha_eff - 2.0 * (dims.t + dims.r) / math.sqrt(
            dims.t
        ) * regime.snr ** (regime.nu + 0.5 * regime.alpha_eff)
    return TrainingOptimum(f_star=f_star, gamma_star=gamma_star, f_lb_asymptotic=f_lb)


# ---------------------------------------------------------------------------
# Operating-point layer: the rate-independent state of (t, r, coherence,
# regime), built once, and the per-rate evaluations on top of it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingPoint:
    """Rate-independent state of one point, built by ``operating_point``.

    training is computed on first use; ``_training_domain`` raises
    TrainingInfeasibleError when coherence <= t leaves no symbol for data.
    """

    t: int
    r: int
    coherence: float
    regime: RegimeParams
    landmarks: RateLandmarks

    @functools.cached_property
    def training(self) -> TrainingOptimum:
        return TrainingOptimum(*_f_star_scalar(self.t, self.coherence, self.regime.snr_b))

    @functools.cached_property
    def _rt_kappa(self) -> tuple[int, float]:
        """(rt, kappa) of the Gallager objective, found once per point."""
        return self.r * self.t, _kappa(self.t, self.coherence, self.regime.snr_b)

    def rate_for_kappa(self, kappa: float) -> float:
        """Rate R = l r snr^kappa of the low-SNR scaling path; overflow is a DomainError."""
        try:
            rate = self.coherence * self.r * self.regime.snr**kappa
        except OverflowError:  # the power overflows; the product only rounds to inf
            rate = math.inf
        if math.isinf(rate):
            raise DomainError(
                f"rate = l r snr^kappa overflows at snr={self.regime.snr:g}, kappa={kappa:g}"
            )
        return rate

    def _exponent(self, rate: float) -> tuple[float, float, str]:
        """(value, rho, region) of the exponent at one rate: the one copy of its formula.

        ``exponent`` wraps it in an ExponentPoint; ``block_error_bound`` and
        the sweep's exponent rows take the tuple as it is.
        """
        if not rate >= 0.0:
            raise DomainError(f"rate must be >= 0, got {rate}")
        lm = self.landmarks
        if rate >= lm.c_block:
            return 0.0, 0.0, REGION_BEYOND
        if lm.asymptotics_binding and rate >= lm.c_block_training_lb:
            return 0.0, 0.0, REGION_C
        rt, kappa = self._rt_kappa
        rho = _rho_star_scalar(rt, kappa, rate)
        return _e0(rt, kappa, rho) - rho * rate, rho, REGION_A if rho >= 1.0 else REGION_B

    def exponent(self, rate: float) -> ExponentPoint:
        """Error exponent at one rate; see ``error_exponent``."""
        return ExponentPoint(rate, *self._exponent(rate), self.landmarks.asymptotics_binding)

    def block_error_bound(self, rate: float) -> float:
        """delta exp(-E_r(rate)); see ``block_error_bound``."""
        return self.regime.delta * math.exp(-self._exponent(rate)[0])

    def outage(self, rate: float) -> OutageEstimate:
        """P(rt, rate / (coherence f_star)); see ``outage_probability``."""
        return OutageEstimate(*self._outage(rate))

    def _outage(self, rate: float) -> tuple[float, float]:
        """(probability, error_weighted) of ``outage``; the sweep's outage rows take the tuple."""
        if not rate >= 0.0:
            raise DomainError(f"rate must be >= 0, got {rate}")
        f_star = self.training.f_star
        prob = gamma_lower_regularized(self.r * self.t, rate / (self.coherence * f_star))
        return prob, self.regime.delta * prob


def _point(dims: ChannelDims, coherence: float, regime: RegimeParams) -> OperatingPoint:
    """The operating point of checked dims at a coherence length that stands in for dims.l."""
    t, r, snr_b = dims.t, dims.r, regime.snr_b
    rt = r * t
    c_block = coherence * _expansion(dims, snr_b)[2]
    c_tlb = c_block - 2.0 * r * math.sqrt(t * snr_b * coherence)
    r_critical = rt / 2.0
    landmarks = RateLandmarks(
        r_critical=r_critical,
        r_cutoff=_e0(rt, _kappa(t, coherence, snr_b), 1.0),
        c_block=c_block,
        c_block_training_lb=c_tlb,
        asymptotics_binding=c_tlb > r_critical,
    )
    return OperatingPoint(t, r, coherence, regime, landmarks)


def _point_at(dims: ChannelDims, snr: float) -> OperatingPoint:
    """``operating_point`` on the l path, for dims the caller has already checked."""
    return _point(dims, float(dims.l), regime_from_coherence(dims, snr))


def operating_point(
    t: int, r: int, snr: float, *, l: int | None = None, nu: float | None = None
) -> OperatingPoint:
    """Rate-independent state at (t, r, snr), given exactly one of l and nu.

    With nu the coherence length t^2/(r+t)^2 snr^(-2 nu) is real-valued.
    ChannelDims checks t and r on both paths.  The landmarks are those of
    ``rate_landmarks``, the training optimum that of ``training_f_star``.
    """
    if nu is None:
        return _point_at(ChannelDims(t, r, l), snr)
    dims = ChannelDims(t, r, 1)  # no integer l on this path: checks t and r only
    regime = regime_from_nu(snr, nu)
    return _point(dims, coherence_for_regime(t, r, regime), regime)


# ---------------------------------------------------------------------------
# Public Gallager-exponent surface.
# ---------------------------------------------------------------------------


def e0_upper(dims: ChannelDims, snr_b: float, rho: float) -> float:
    """Coherent-side upper bound on the Gallager function of one block.

    rt log(1 + rho l snr_b / (t (1 + rho))).  The trace relaxation of the
    log-determinant makes this an upper bound on the exact coherent Gallager
    function, and receiver side information makes that in turn an upper bound
    on every exponent achievable without it.
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [0, 1], got {rho}")
    if not 0.0 < snr_b < math.inf:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    return _e0(dims.r * dims.t, _kappa(dims.t, dims.l, snr_b), rho)


def rho_star(dims: ChannelDims, regime: RegimeParams, rate: float) -> float:
    """Maximizing Gallager parameter for the block exponent at this rate.

    Solves the maximization exactly (quadratic stationary point, clipped to
    [0, 1]); rate = 0 returns 1 by convention.  Values that would exceed 1
    correspond to rates below the critical rate.
    """
    if not rate >= 0.0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    return _rho_star_scalar(dims.r * dims.t, _kappa(dims.t, dims.l, regime.snr_b), rate)


def rho_one_rate(dims: ChannelDims, regime: RegimeParams) -> float:
    """Rate at which ``rho_star`` leaves 1: the boundary between regions A and B.

    rt kappa / (2 (2 + kappa)) with kappa = l snr_b / t.
    """
    return _rho_one(dims.r * dims.t, _kappa(dims.t, dims.l, regime.snr_b))


def rate_landmarks(dims: ChannelDims, snr: float) -> RateLandmarks:
    """Critical rate, cut-off rate, block capacity, and its training lower bound.

    r_critical = rt/2 with its o(1) dropped; the other three come from the
    block-SNR closed forms with curvature remainders dropped.
    """
    return _point_at(dims, snr).landmarks


def error_exponent(dims: ChannelDims, snr: float, rate: float) -> ExponentPoint:
    """Random-coding error exponent per transmitted block at one rate.

    Region A/B: the Gallager objective at the exact maximizing rho (the two
    regions agree at the clip boundary, so the curve is continuous there).
    Region C, between the training lower bound and block capacity, is pinned
    only to o(1) and is reported as exactly 0 with its tag; past capacity the
    exponent is 0.  When the training bound is degenerate at this snr the
    region-C cut is skipped and the point is flagged via asymptotics_binding.
    """
    return _point_at(dims, snr).exponent(rate)


def exponent_curve(dims: ChannelDims, snr: float, rates) -> ExponentCurve:
    """Evaluate the exponent on a rate grid and attach the landmarks."""
    point = _point_at(dims, snr)
    return ExponentCurve(point.landmarks, tuple(point.exponent(float(rate)) for rate in rates))


def block_error_bound(dims: ChannelDims, snr: float, rate: float) -> float:
    """Upper bound on the block error probability: delta(snr) exp(-E_r(rate)).

    The duty-cycle prefactor counts the chance the block carries signal at
    all.  Since the exponent is nonnegative and delta <= 1, the bound always
    lands in [0, 1].
    """
    return _point_at(dims, snr).block_error_bound(rate)


def outage_probability(dims: ChannelDims, snr: float, rate: float) -> OutageEstimate:
    """Probability the post-training block cannot carry ``rate`` nats.

    Outage of the trained channel reduces to a chi-squared-type tail:
    P(rt, rate / (l f_star)), with f_star the closed-form maximum of the
    effective data SNR (see ``training_f_star``).  error_weighted =
    delta(snr) * probability is the heuristic that tracks the block error
    bound in the rate region where outage dominates.
    """
    return _point_at(dims, snr).outage(rate)


def slope_fit(points) -> SlopeFit:
    """Least-squares line through (x, y) pairs; needs two distinct abscissae."""
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise DomainError("slope_fit needs at least 2 distinct abscissae")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(((ys - (slope * xs + intercept)) ** 2).sum())
    return SlopeFit(slope=float(slope), intercept=float(intercept), residual=resid)


def diversity_low_snr(
    dims: ChannelDims, nu: float, kappa: float, snr_grid=None
) -> DiversityEstimate:
    """Low-SNR diversity order for rates R = l r snr^kappa inside region B.

    Closed form: rt (kappa - min(1, nu)) + 1 - min(1, nu).  When an snr grid
    is supplied, two empirical estimates come along: least-squares slopes of
    log block_error_bound, taken as log delta - E_r so that it never
    underflows, and of log(delta * outage) against log snr, with the
    coherence length re-derived from nu at every grid point (it is
    real-valued along this scaling path, so dims.l is not used).  A grid
    point whose coherence length is <= t cannot train and raises
    TrainingInfeasibleError; one where delta * outage underflows to 0 raises
    a DomainError.
    """
    if not nu > 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    mn = min(1.0, nu)
    if not mn < kappa < 2.0 * nu:
        raise DomainError(
            f"kappa must lie in (min(1, nu), 2 nu) = ({mn}, {2.0 * nu}), got {kappa}"
        )
    order = dims.r * dims.t * (kappa - mn) + 1.0 - mn
    if snr_grid is None:
        return DiversityEstimate(order=order)

    bound_pts = []
    outage_pts = []
    for snr in snr_grid:
        point = operating_point(dims.t, dims.r, float(snr), nu=nu)
        rate = point.rate_for_kappa(kappa)
        x = math.log(float(snr))
        bound_pts.append((x, math.log(point.regime.delta) - point._exponent(rate)[0]))
        weighted = point.outage(rate).error_weighted
        if weighted == 0.0:
            raise DomainError(f"delta * outage underflows to 0 at snr={float(snr):g}")
        outage_pts.append((x, math.log(weighted)))
    return DiversityEstimate(
        order=order,
        bound_fit=slope_fit(bound_pts),
        outage_fit=slope_fit(outage_pts),
    )
